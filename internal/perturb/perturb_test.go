package perturb

import (
	"testing"

	"repro/internal/model"
)

// TestCounterSequential sanity-checks the SWCounter semantics: three
// processes performing their budgets sequentially produce the expected
// final responses.
func TestCounterSequential(t *testing.T) {
	c := model.NewConfig(SWCounter{}, []model.Value{"2", "1", "1"})
	// p0 twice, then p1, then p2, each to completion.
	for _, pid := range []int{0, 1, 2} {
		for i := 0; i < 100; i++ {
			if _, ok := c.Decided(pid); ok {
				break
			}
			c = c.StepDet(pid)
		}
	}
	want := map[int]model.Value{0: "2", 1: "3", 2: "4"}
	for pid, exp := range want {
		got, ok := c.Decided(pid)
		if !ok || got != exp {
			t.Fatalf("p%d: decided (%q,%v), want %q", pid, string(got), ok, string(exp))
		}
	}
}

// TestPerturbationWitness is experiment E5: the JTT adversary forces n-1
// distinct covered registers on the single-writer counter and the reader's
// solo operation costs at least n-1 steps, for a range of n.
func TestPerturbationWitness(t *testing.T) {
	for _, n := range []int{2, 3, 4, 6, 8, 12} {
		w, err := NewAdversary(SWCounter{}).Run(n)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if w.Registers < n-1 {
			t.Fatalf("n=%d: covered %d registers, want >= n-1", n, w.Registers)
		}
		if w.ReaderSoloSteps < n-1 {
			t.Fatalf("n=%d: reader solo steps %d below the JTT time bound n-1", n, w.ReaderSoloSteps)
		}
		// Distinctness of the cover.
		seen := map[int]bool{}
		for _, reg := range w.Cover {
			if seen[reg] {
				t.Fatalf("n=%d: register %d covered twice", n, reg)
			}
			seen[reg] = true
		}
		// Every stage's perturbation evidence must be real.
		for _, st := range w.Stages {
			if st.Unperturbed == st.Perturbed {
				t.Fatalf("n=%d stage %d: no perturbation recorded", n, st.K)
			}
		}
		t.Logf("%v", w)
	}
}

// TestPerturbationRejectsUnperturbable feeds the adversary a machine whose
// reader ignores shared memory; the perturbation evidence must fail loudly.
func TestPerturbationRejectsUnperturbable(t *testing.T) {
	if _, err := NewAdversary(constCounter{}).Run(3); err == nil {
		t.Fatal("expected failure for an unperturbable object")
	}
}

// constCounter always answers 0 without reading anything useful: a
// deliberately non-linearizable "counter" used to test the adversary's
// evidence checking.
type constCounter struct{}

func (constCounter) Name() string        { return "constcounter" }
func (constCounter) Registers(n int) int { return n }
func (constCounter) Init(n, pid int, input model.Value) model.State {
	return constState{pid: pid}
}

type constState struct {
	pid   int
	wrote bool
}

func (s constState) Pending() model.Op {
	if !s.wrote {
		return model.Op{Kind: model.OpWrite, Reg: s.pid, Arg: "1"}
	}
	return model.Op{Kind: model.OpDecide, Arg: "0"}
}

func (s constState) Next(model.Value) model.State {
	return constState{pid: s.pid, wrote: true}
}

func (s constState) AppendKey(dst []byte) []byte {
	return append(dst, "K"+string(rune('0'+s.pid))+map[bool]string{true: "w", false: "-"}[s.wrote]...)
}

// TestPerturbationSWCollect runs the same adversary against the second
// perturbable object (single-writer collect): the construction is
// implementation-agnostic, covering n-1 registers here too.
func TestPerturbationSWCollect(t *testing.T) {
	for _, n := range []int{2, 3, 5, 9} {
		w, err := NewAdversary(SWCollect{}).Run(n)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if w.Registers < n-1 {
			t.Fatalf("n=%d: covered %d registers, want >= n-1", n, w.Registers)
		}
		if w.ReaderSoloSteps < n-1 {
			t.Fatalf("n=%d: reader solo steps %d below n-1", n, w.ReaderSoloSteps)
		}
		t.Logf("%v", w)
	}
}

// TestSWCollectSequential pins the collect semantics.
func TestSWCollectSequential(t *testing.T) {
	c := model.NewConfig(SWCollect{}, []model.Value{"1", "2"})
	for _, pid := range []int{0, 1} {
		for i := 0; i < 50; i++ {
			if _, ok := c.Decided(pid); ok {
				break
			}
			c = c.StepDet(pid)
		}
	}
	v0, _ := c.Decided(0)
	v1, _ := c.Decided(1)
	if string(v0) != "1,0" {
		t.Fatalf("p0 response %q, want \"1,0\"", string(v0))
	}
	if string(v1) != "1,2" {
		t.Fatalf("p1 response %q, want \"1,2\"", string(v1))
	}
}
