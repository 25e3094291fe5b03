package perturb

import (
	"fmt"
	"strconv"

	"repro/internal/model"
)

// SWCollect is a single-writer snapshot-style object: process i's register
// holds its latest published value, an update operation publishes the next
// value in the process's sequence, and the operation's response is the
// collected vector of all registers (a regular collect). Single-writer
// snapshot is in set A of the Jayanti-Tan-Toueg theorem, so the
// perturbation adversary must force n-1 covered registers on it too —
// running the same adversary against a second, structurally different
// object (vector responses instead of sums) is the implementation-
// agnosticism check for internal/perturb.
type SWCollect struct{}

var _ model.Machine = SWCollect{}

// Name implements model.Machine.
func (SWCollect) Name() string { return "swcollect" }

// Registers implements model.Machine.
func (SWCollect) Registers(n int) int { return n }

// Init implements model.Machine. The input is the process's operation
// budget in decimal, matching the SWCounter convention the adversary
// expects.
func (SWCollect) Init(n, pid int, input model.Value) model.State {
	budget, err := strconv.Atoi(string(input))
	if err != nil || budget < 0 {
		panic(fmt.Sprintf("swcollect: input must be a non-negative op budget, got %q", string(input)))
	}
	if budget == 0 {
		return collectState{n: n, pid: pid, phase: counterDone}
	}
	return collectState{n: n, pid: pid, remaining: budget, phase: counterWrite}
}

// collectState is the immutable local state of one SWCollect process. An
// operation is write-own-then-collect: publish the next sequence value,
// then read all registers; the response is the joined vector.
type collectState struct {
	n, pid    int
	remaining int
	phase     counterPhase
	seq       int
	idx       int
	got       string
	last      string
}

var _ model.State = collectState{}

// Pending implements model.State.
func (s collectState) Pending() model.Op {
	switch s.phase {
	case counterWrite:
		return model.Op{
			Kind: model.OpWrite,
			Reg:  s.pid,
			Arg:  model.Value(strconv.Itoa(s.seq + 1)),
		}
	case counterScan:
		return model.Op{Kind: model.OpRead, Reg: s.idx}
	case counterDone:
		return model.Op{Kind: model.OpDecide, Arg: model.Value(s.last)}
	default:
		panic(fmt.Sprintf("swcollect: invalid phase %d", s.phase))
	}
}

// Next implements model.State.
func (s collectState) Next(in model.Value) model.State {
	switch s.phase {
	case counterWrite:
		next := s
		next.seq++
		next.phase = counterScan
		next.idx = 0
		next.got = ""
		return next
	case counterScan:
		next := s
		cell := string(in)
		if cell == "" {
			cell = "0"
		}
		if next.got != "" {
			next.got += ","
		}
		next.got += cell
		if s.idx+1 < s.n {
			next.idx++
			return next
		}
		next.last = next.got
		next.remaining--
		if next.remaining == 0 {
			next.phase = counterDone
		} else {
			next.phase = counterWrite
		}
		return next
	default:
		panic("swcollect: Next on terminated state")
	}
}

// AppendKey implements model.State.
func (s collectState) AppendKey(dst []byte) []byte {
	return fmt.Appendf(dst, "V|%d|%d|%d|%d|%d|%s|%s",
		s.pid, s.remaining, s.phase, s.seq, s.idx, s.got, s.last)
}
