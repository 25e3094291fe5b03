package model

import (
	"testing"
	"testing/quick"
)

// toyState is a minimal machine for model-level tests: each process writes
// its input to register pid, reads register (pid+1) mod n, then decides what
// it read (or its own input if the read was empty).
type toyState struct {
	n, pid int
	input  Value
	stage  int
	got    Value
}

type toyMachine struct{}

func (toyMachine) Name() string        { return "toy" }
func (toyMachine) Registers(n int) int { return n }
func (toyMachine) Init(n, pid int, input Value) State {
	return toyState{n: n, pid: pid, input: input}
}

func (s toyState) Pending() Op {
	switch s.stage {
	case 0:
		return Op{Kind: OpWrite, Reg: s.pid, Arg: s.input}
	case 1:
		return Op{Kind: OpRead, Reg: (s.pid + 1) % s.n}
	default:
		out := s.got
		if out == Bottom {
			out = s.input
		}
		return Op{Kind: OpDecide, Arg: out}
	}
}

func (s toyState) Next(in Value) State {
	next := s
	next.stage++
	if s.stage == 1 {
		next.got = in
	}
	return next
}

func (s toyState) AppendKey(dst []byte) []byte {
	return append(dst, "t"+string(rune('0'+s.pid))+string(rune('0'+s.stage))+"|"+string(s.input)+"|"+string(s.got)...)
}

func toyConfig() Config {
	return NewConfig(toyMachine{}, []Value{"a", "b", "c"})
}

func TestStepWriteAndRead(t *testing.T) {
	c := toyConfig()
	c = c.StepDet(0) // p0 writes "a" to r0
	if got := c.Register(0); got != "a" {
		t.Fatalf("r0 = %q, want \"a\"", string(got))
	}
	c = c.StepDet(2) // p2 writes "c" to r2, so p1's read sees it... p1 reads r2
	c = c.StepDet(1) // p1 writes "b" to r1
	c = c.StepDet(1) // p1 reads r2 = "c" and is now poised on decide
	if v, ok := c.Decided(1); !ok || v != "c" {
		t.Fatalf("p1 decided (%q,%v), want (\"c\",true)", string(v), ok)
	}
	// A decided process takes no further steps.
	if got := c.StepDet(1).Key(); got != c.Key() {
		t.Fatal("stepping decided p1 changed the configuration")
	}
}

func TestDecidedProcessTakesNoSteps(t *testing.T) {
	c := toyConfig()
	for i := 0; i < 5; i++ {
		c = c.StepDet(0)
	}
	key := c.Key()
	if got := c.StepDet(0).Key(); got != key {
		t.Fatal("stepping a decided process changed the configuration")
	}
}

func TestCovering(t *testing.T) {
	c := toyConfig()
	if !c.Covers(0, 0) || c.Covers(0, 1) {
		t.Fatal("initial covering wrong for p0")
	}
	reg, ok := c.CoveredRegister(1)
	if !ok || reg != 1 {
		t.Fatalf("p1 covers (%d,%v), want (1,true)", reg, ok)
	}
	covered, ok := c.CoverSet([]int{0, 1, 2})
	if !ok || len(covered) != 3 {
		t.Fatalf("CoverSet = (%v,%v), want 3 distinct", covered, ok)
	}
	c = c.StepDet(0)
	if _, ok := c.CoveredRegister(0); ok {
		t.Fatal("p0 still covering after its write")
	}
	if _, ok := c.CoverSet([]int{0}); ok {
		t.Fatal("CoverSet should fail for a reading process")
	}
}

func TestIndistinguishable(t *testing.T) {
	c := toyConfig()
	d := c.StepDet(2) // p2 writes r2
	if c.IndistinguishableTo(d, []int{0, 1, 2}) {
		t.Fatal("configs with different registers reported indistinguishable")
	}
	// After p2's write, a config where only p2's local state differs is
	// indistinguishable to {0,1}.
	e := d.StepDet(2) // p2 reads r0 (no register change)
	if !d.IndistinguishableTo(e, []int{0, 1}) {
		t.Fatal("p2-local change visible to {0,1}")
	}
	if d.IndistinguishableTo(e, []int{2}) {
		t.Fatal("p2-local change invisible to p2 itself")
	}
}

func TestScheduleHelpers(t *testing.T) {
	s := Concat(Solo(1, 2), Schedule{0, 2})
	if got := s.String(); got != "p1 p1 p0 p2" {
		t.Fatalf("String = %q", got)
	}
	if !s.OnlyBy(PidSet([]int{0, 1, 2})) || s.OnlyBy(PidSet([]int{1})) {
		t.Fatal("OnlyBy wrong")
	}
	if got := s.Participants(); len(got) != 3 || got[0] != 0 || got[2] != 2 {
		t.Fatalf("Participants = %v", got)
	}
	if got := (Schedule{}).String(); got != "ε" {
		t.Fatalf("empty schedule renders %q", got)
	}
	if got := Without([]int{3, 1, 2}, 2); len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Fatalf("Without = %v", got)
	}
	if got := BlockWrite([]int{2, 0}); got[0] != 0 || got[1] != 2 {
		t.Fatalf("BlockWrite = %v, want sorted", got)
	}
}

func TestRunTraceRecordsReads(t *testing.T) {
	c := toyConfig()
	_, trace := RunTrace(c, Schedule{0, 1, 1})
	if len(trace) != 3 {
		t.Fatalf("trace length %d", len(trace))
	}
	if trace[0].Op.Kind != OpWrite {
		t.Fatalf("step 0 = %v, want write", trace[0])
	}
	if trace[2].Op.Kind != OpRead || trace[2].In != Bottom {
		t.Fatalf("step 2 = %v, want read of ⊥", trace[2])
	}
}

// TestKeyDeterminism (property): the canonical key is a function of the
// schedule applied — replaying any schedule yields an identical key.
func TestKeyDeterminism(t *testing.T) {
	f := func(raw []uint8) bool {
		run := func() string {
			c := toyConfig()
			for _, b := range raw {
				c = c.StepDet(int(b) % 3)
			}
			return c.Key()
		}
		return run() == run()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestPathSchedule (property): lifting a schedule to moves and projecting
// back is the identity.
func TestPathSchedule(t *testing.T) {
	f := func(raw []uint8) bool {
		s := make(Schedule, len(raw))
		for i, b := range raw {
			s[i] = int(b) % 5
		}
		back := MovesOf(s).Schedule()
		if len(back) != len(s) {
			return false
		}
		for i := range s {
			if s[i] != back[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestRunPathMatchesRun (property): on coin-free machines RunPath and Run
// agree.
func TestRunPathMatchesRun(t *testing.T) {
	f := func(raw []uint8) bool {
		s := make(Schedule, len(raw))
		for i, b := range raw {
			s[i] = int(b) % 3
		}
		a := Run(toyConfig(), s)
		b := RunPath(toyConfig(), MovesOf(s))
		return a.Key() == b.Key()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestRebuildConfigDimensionCheck(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for dimension mismatch")
		}
	}()
	c := toyConfig()
	RebuildConfig(c, make([]State, 2), make([]Value, 3))
}

// countingState writes its budget down to zero and counts every Pending
// call through a shared counter. Like the protocol states, it answers
// PeekOp without building the Op.
type countingState struct {
	calls *int
	left  int
}

func (s countingState) Pending() Op {
	*s.calls++
	if s.left == 0 {
		return Op{Kind: OpDecide, Arg: "d"}
	}
	return Op{Kind: OpWrite, Reg: 0, Arg: Value(string(rune('0' + s.left)))}
}

func (s countingState) PeekOp() (OpKind, int) {
	if s.left == 0 {
		return OpDecide, 0
	}
	return OpWrite, 0
}

func (s countingState) Next(Value) State { return countingState{calls: s.calls, left: s.left - 1} }

func (s countingState) AppendKey(dst []byte) []byte { return append(dst, byte('0'+s.left)) }

// TestStepDetPendingOncePerMove: a deterministic move builds its pending
// Op exactly once. Pending is the expensive half of a write-poised state
// (DiskRace encodes the register block into a fresh string), so a guard
// that re-derived it would double that cost on every replayed move.
func TestStepDetPendingOncePerMove(t *testing.T) {
	calls := 0
	c := Config{states: []State{countingState{calls: &calls, left: 5}}, regs: []Value{Bottom}}
	for _, tc := range []struct {
		name  string
		moves int
		run   func() Config
	}{
		{"StepDet", 1, func() Config { return c.StepDet(0) }},
		{"ApplyMove", 1, func() Config { return ApplyMove(c, Move{Pid: 0}) }},
		{"RunPath", 3, func() Config { return RunPath(c, MovesOf(Schedule{0, 0, 0})) }},
	} {
		calls = 0
		if got := tc.run(); got.Register(0) == Bottom {
			t.Fatalf("%s: no write took effect", tc.name)
		}
		if calls != tc.moves {
			t.Fatalf("%s: %d Pending calls for %d moves, want one per move", tc.name, calls, tc.moves)
		}
	}
}
