// Package model defines an executable version of the asynchronous shared
// memory model used by Zhu's "A Tight Space Bound for Consensus" (STOC/PODC
// 2016): n processes that communicate by reading and writing shared
// multi-writer multi-reader registers, scheduled by an adversary.
//
// Protocols are expressed as deterministic (optionally coin-flipping) state
// machines via the Machine and State interfaces. A Config captures a full
// system configuration (the local state of every process plus the contents of
// every register); schedules are sequences of process identifiers, and
// applying a schedule to a configuration yields an execution, exactly as in
// Section 2 of the paper.
//
// Everything in this package is immutable-by-convention: applying a step
// returns a fresh Config, so configurations can be stored, hashed, compared
// and replayed freely. That is the property the covering/valency machinery in
// internal/valency and internal/adversary builds on.
package model

import (
	"fmt"
)

// Value is the contents of a register. The paper's lower bound holds even
// for registers of unbounded size, so values are arbitrary strings; protocols
// encode whatever structure they need. The zero value Bottom represents the
// initial contents of every register.
type Value string

// Bottom is the initial contents of every register (⊥ in the paper).
const Bottom Value = ""

// OpKind enumerates the kinds of operations a process can be poised to
// perform. Following the Uber style guide, the enum starts at one so the
// zero value is detectably invalid.
type OpKind uint8

const (
	// OpRead reads a register; the value read is fed to State.Next.
	OpRead OpKind = iota + 1
	// OpWrite writes Op.Arg to register Op.Reg.
	OpWrite
	// OpDecide indicates the process has irrevocably decided Op.Arg.
	// A decided process takes no further steps.
	OpDecide
	// OpCoin flips a fair coin; the outcome ("0" or "1") is fed to
	// State.Next. Coins make a protocol nondeterministic: the exploration
	// machinery branches on both outcomes, which matches the paper's
	// "nondeterministic solo terminating" hypothesis.
	OpCoin
	// OpSwap atomically stores Op.Arg into register Op.Reg and feeds the
	// register's previous contents to State.Next. Swap is the canonical
	// "historyless" primitive of the paper's Section 4: its write-like
	// half obliterates like a write, but the returned old value lets the
	// swapper detect interference — which is exactly why the paper's
	// covering argument (Lemma 2's hiding step) does not extend to it;
	// see consensus.TestSwapDefeatsHiding.
	OpSwap
)

// String returns a short human-readable name for the kind.
func (k OpKind) String() string {
	switch k {
	case OpRead:
		return "read"
	case OpWrite:
		return "write"
	case OpDecide:
		return "decide"
	case OpCoin:
		return "coin"
	case OpSwap:
		return "swap"
	default:
		return fmt.Sprintf("OpKind(%d)", uint8(k))
	}
}

// Op is the operation a process is poised to perform in its current state.
type Op struct {
	Kind OpKind
	// Reg is the register index for OpRead and OpWrite.
	Reg int
	// Arg is the value written (OpWrite) or decided (OpDecide).
	Arg Value
}

// String renders the op in trace notation, e.g. "write(r2, \"1|3\")".
func (o Op) String() string {
	switch o.Kind {
	case OpRead:
		return fmt.Sprintf("read(r%d)", o.Reg)
	case OpWrite:
		return fmt.Sprintf("write(r%d, %q)", o.Reg, string(o.Arg))
	case OpDecide:
		return fmt.Sprintf("decide(%q)", string(o.Arg))
	case OpCoin:
		return "coin()"
	case OpSwap:
		return fmt.Sprintf("swap(r%d, %q)", o.Reg, string(o.Arg))
	default:
		return o.Kind.String()
	}
}

// State is the immutable local state of a single process. Implementations
// must be pure values: Next must not mutate the receiver, and two states
// whose AppendKey bytes are equal must behave identically forever. This is
// what lets the exploration machinery hash, memoise and replay
// configurations.
type State interface {
	// Pending returns the operation the process is poised to perform.
	// For a decided process this is an OpDecide and never changes.
	Pending() Op

	// Next returns the successor state after the pending operation
	// completes. For OpRead the argument is the value read; for OpCoin it
	// is the outcome ("0" or "1"); for OpWrite it is ignored (writes
	// return only an acknowledgement, as in the paper). Next must not be
	// called on a decided state.
	Next(in Value) State

	// AppendKey appends the state's identity bytes to dst and returns the
	// extended slice. Two states are treated as identical iff they append
	// equal bytes; the bytes feed the configuration fingerprint used for
	// deduplication and memoisation and the packed codec's dictionary, so
	// they must depend on nothing but the state's behaviour.
	AppendKey(dst []byte) []byte
}

// Machine is a protocol: it tells the framework how many registers it uses
// and what each process's initial state is. Implementations must be
// stateless; all per-run state lives in State values.
type Machine interface {
	// Name identifies the protocol in traces and reports.
	Name() string
	// Registers returns the number of shared registers the protocol uses
	// when run by n processes. Register indices are 0..Registers(n)-1.
	Registers(n int) int
	// Init returns the initial state of process pid (0-based) among n
	// processes with the given input value.
	Init(n, pid int, input Value) State
}

// Config is a configuration of the protocol: the local state of each process
// and the contents of each register. Configs are immutable; Step returns a
// new Config. The zero value is not useful; use NewConfig.
type Config struct {
	states []State
	regs   []Value
}

// NewConfig returns the initial configuration of machine m for n processes
// with the given inputs (inputs[i] is the input of process i).
func NewConfig(m Machine, inputs []Value) Config {
	n := len(inputs)
	states := make([]State, n)
	for i, in := range inputs {
		states[i] = m.Init(n, i, in)
	}
	return Config{
		states: states,
		regs:   make([]Value, m.Registers(n)),
	}
}

// RebuildConfig returns a configuration with the given states and register
// contents. The template supplies only dimension checking. It exists for
// tools that must construct configurations directly, such as the
// bisimulation tests of protocol canonicalisers; protocol executions should
// go through Step.
func RebuildConfig(template Config, states []State, regs []Value) Config {
	if len(states) != len(template.states) || len(regs) != len(template.regs) {
		panic(fmt.Sprintf("model: RebuildConfig dimension mismatch: %d/%d states, %d/%d registers",
			len(states), len(template.states), len(regs), len(template.regs)))
	}
	s := make([]State, len(states))
	copy(s, states)
	r := make([]Value, len(regs))
	copy(r, regs)
	return Config{states: s, regs: r}
}

// NumProcesses returns the number of processes in the configuration.
func (c Config) NumProcesses() int { return len(c.states) }

// NumRegisters returns the number of registers in the configuration.
func (c Config) NumRegisters() int { return len(c.regs) }

// State returns the local state of process pid.
func (c Config) State(pid int) State { return c.states[pid] }

// Register returns the contents of register r.
func (c Config) Register(r int) Value { return c.regs[r] }

// Registers returns a copy of the register contents.
func (c Config) Registers() []Value {
	out := make([]Value, len(c.regs))
	copy(out, c.regs)
	return out
}

// Decided reports whether process pid has decided, and if so which value.
// The kind is peeked first (see OpPeeker) so undecided write-poised states
// never pay Pending's argument encoding — this runs once per process per
// visited configuration in the valency oracle.
func (c Config) Decided(pid int) (Value, bool) {
	if k, _ := PeekOp(c.states[pid]); k != OpDecide {
		return Bottom, false
	}
	return c.states[pid].Pending().Arg, true
}

// DecidedValues returns the set of values decided by any process in c.
func (c Config) DecidedValues() map[Value]bool {
	out := make(map[Value]bool)
	for pid := range c.states {
		if v, ok := c.Decided(pid); ok {
			out[v] = true
		}
	}
	return out
}

// Covers reports whether process pid covers register r in c, i.e. is poised
// to perform a write to r (Definition 2 in the paper).
func (c Config) Covers(pid, r int) bool {
	k, reg := PeekOp(c.states[pid])
	return k == OpWrite && reg == r
}

// CoveredRegister returns the register process pid is poised to write, or
// (-1, false) if pid's pending operation is not a write.
func (c Config) CoveredRegister(pid int) (int, bool) {
	k, reg := PeekOp(c.states[pid])
	if k != OpWrite {
		return -1, false
	}
	return reg, true
}

// CoverSet returns, for the given set of processes, the set of registers
// they cover. The second result is false if some process in R is not poised
// to write (so R is not a set of covering processes in the paper's sense).
func (c Config) CoverSet(r []int) (map[int]bool, bool) {
	covered := make(map[int]bool, len(r))
	for _, pid := range r {
		reg, ok := c.CoveredRegister(pid)
		if !ok {
			return nil, false
		}
		covered[reg] = true
	}
	return covered, true
}

// Key returns the configuration's identity bytes (AppendKey) as a string.
func (c Config) Key() string { return string(c.AppendKey(nil)) }

// IndistinguishableTo reports whether configurations c and d are
// indistinguishable to every process in p: each process in p is in the same
// state in both, and every register has the same contents in both (the
// definition in Section 2 of the paper).
func (c Config) IndistinguishableTo(d Config, p []int) bool {
	if len(c.regs) != len(d.regs) || len(c.states) != len(d.states) {
		return false
	}
	for i := range c.regs {
		if c.regs[i] != d.regs[i] {
			return false
		}
	}
	var a, b []byte
	for _, pid := range p {
		a = c.states[pid].AppendKey(a[:0])
		b = d.states[pid].AppendKey(b[:0])
		if string(a) != string(b) {
			return false
		}
	}
	return true
}

// Step applies one step of process pid and returns the resulting
// configuration. If the pending operation is a coin flip, the provided coin
// value ("0" or "1") is used as the outcome; for other operations coin is
// ignored. Stepping a decided process returns c unchanged: decided processes
// take no further steps (their executions have terminated).
func (c Config) Step(pid int, coin Value) Config {
	st := c.states[pid]
	op := st.Pending()
	switch op.Kind {
	case OpDecide:
		return c
	case OpRead:
		return c.withState(pid, st.Next(c.regs[op.Reg]))
	case OpWrite:
		d := c.withState(pid, st.Next(Bottom))
		regs := make([]Value, len(c.regs))
		copy(regs, c.regs)
		regs[op.Reg] = op.Arg
		d.regs = regs
		return d
	case OpCoin:
		return c.withState(pid, st.Next(coin))
	case OpSwap:
		old := c.regs[op.Reg]
		d := c.withState(pid, st.Next(old))
		regs := make([]Value, len(c.regs))
		copy(regs, c.regs)
		regs[op.Reg] = op.Arg
		d.regs = regs
		return d
	default:
		// A Machine returning an invalid op is a programming error in
		// the protocol under test; fail loudly rather than mask it.
		panic(fmt.Sprintf("model: process %d poised on invalid op %v", pid, op))
	}
}

// StepDet applies one deterministic step of process pid. It must not be used
// when pid is poised on a coin flip; use Step with an explicit outcome there.
func (c Config) StepDet(pid int) Config {
	if kind, _ := PeekOp(c.states[pid]); kind == OpCoin {
		panic("model: StepDet on a coin-flip step; outcome required")
	}
	return c.Step(pid, Bottom)
}

func (c Config) withState(pid int, s State) Config {
	states := make([]State, len(c.states))
	copy(states, c.states)
	states[pid] = s
	return Config{states: states, regs: c.regs}
}
