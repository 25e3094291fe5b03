// Package perturb reproduces the perturbation argument of Jayanti, Tan and
// Toueg (deck part I.1 of the provided text): obstruction-free counters —
// like every perturbable object — need at least n-1 registers and n-1 solo
// steps. The package supplies a model-level counter implementation and an
// executable adversary that builds the covering schedules α_k, β_k, γ_k of
// the induction, verifying at every stage that a schedule λ by a fresh
// process perturbs the reader's response (which is exactly what forces the
// reader to visit a register outside the current cover).
package perturb

import (
	"fmt"
	"strconv"

	"repro/internal/model"
)

// SWCounter is an n-process counter from n single-writer registers: R[i]
// holds process i's increment count (as a decimal string). A fetch&inc
// reads all registers and then writes own+1 to the process's register,
// returning the observed sum plus one. Each process performs the number of
// fetch&inc operations given by its (decimal) input and then halts,
// decreeing the response of its final operation — which lets the
// perturbation adversary observe responses through the standard model
// machinery.
//
// The object is perturbable in the JTT sense: inserting increments by a
// process whose register the reader has not yet covered changes the
// reader's response. The implementation uses n registers, one above the
// n-1 lower bound the adversary witnesses.
type SWCounter struct{}

var _ model.Machine = SWCounter{}

// Name implements model.Machine.
func (SWCounter) Name() string { return "swcounter" }

// Registers implements model.Machine.
func (SWCounter) Registers(n int) int { return n }

// Init implements model.Machine. The input is the process's operation
// budget in decimal.
func (SWCounter) Init(n, pid int, input model.Value) model.State {
	budget, err := strconv.Atoi(string(input))
	if err != nil || budget < 0 {
		panic(fmt.Sprintf("swcounter: input must be a non-negative op budget, got %q", string(input)))
	}
	if budget == 0 {
		return counterState{n: n, pid: pid, phase: counterDone}
	}
	return counterState{n: n, pid: pid, remaining: budget, phase: counterScan}
}

type counterPhase uint8

const (
	counterScan counterPhase = iota + 1
	counterWrite
	counterDone
)

// counterState is the immutable local state of one SWCounter process.
type counterState struct {
	n, pid    int
	remaining int
	phase     counterPhase
	idx       int
	sum       int64 // running sum of the current scan
	own       int64 // own count observed during the current scan
	last      int64 // response of the most recent fetch&inc
}

var _ model.State = counterState{}

// Pending implements model.State.
func (s counterState) Pending() model.Op {
	switch s.phase {
	case counterScan:
		return model.Op{Kind: model.OpRead, Reg: s.idx}
	case counterWrite:
		return model.Op{
			Kind: model.OpWrite,
			Reg:  s.pid,
			Arg:  model.Value(strconv.FormatInt(s.own+1, 10)),
		}
	case counterDone:
		return model.Op{Kind: model.OpDecide, Arg: model.Value(strconv.FormatInt(s.last, 10))}
	default:
		panic(fmt.Sprintf("swcounter: invalid phase %d", s.phase))
	}
}

// Next implements model.State.
func (s counterState) Next(in model.Value) model.State {
	switch s.phase {
	case counterScan:
		v := int64(0)
		if in != model.Bottom {
			parsed, err := strconv.ParseInt(string(in), 10, 64)
			if err != nil {
				panic(fmt.Sprintf("swcounter: corrupt register contents %q", string(in)))
			}
			v = parsed
		}
		next := s
		next.sum += v
		if s.idx == s.pid {
			next.own = v
		}
		if s.idx+1 < s.n {
			next.idx++
			return next
		}
		next.phase = counterWrite
		return next
	case counterWrite:
		next := s
		next.last = s.sum + 1
		next.remaining--
		next.idx, next.sum, next.own = 0, 0, 0
		if next.remaining == 0 {
			next.phase = counterDone
		} else {
			next.phase = counterScan
		}
		return next
	default:
		panic("swcounter: Next on terminated state")
	}
}

// AppendKey implements model.State.
func (s counterState) AppendKey(dst []byte) []byte {
	return fmt.Appendf(dst, "C%d|%d|%d|%d|%d|%d|%d|%d",
		s.n, s.pid, s.remaining, s.phase, s.idx, s.sum, s.own, s.last)
}
