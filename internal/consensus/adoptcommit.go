package consensus

import (
	"fmt"

	"repro/internal/model"
)

// AdoptCommit is the model twin of internal/native's adopt-commit object:
// the two-stage conflict detector from four multi-writer bits (A0, A1, B0,
// B1) that glues the rounds of randomized consensus together. Expressing it
// in the model makes its three defining properties *exhaustively
// machine-checked* rather than hand-proved (TestAdoptCommitModelProperties
// verifies them over every interleaving for n up to 4):
//
//	(a) if every proposal is v, every process commits v;
//	(b) if any process commits v, every process commits or adopts v;
//	(c) returned values were proposed.
//
// Each process performs: write A[v]; read A[v̄]; if set, read B[v̄] and
// adopt (deferring to a possibly committing v̄ if B[v̄] was set); otherwise
// write B[v] and read A[v̄] again, committing v only if it is still clear.
// A process "decides" the string "C:v" or "A:v" so the checker can inspect
// outcomes through the standard machinery.
type AdoptCommit struct{}

var _ model.Machine = AdoptCommit{}

// Register layout.
const (
	acRegA0 = iota
	acRegA1
	acRegB0
	acRegB1
	acRegCount
)

// Name implements model.Machine.
func (AdoptCommit) Name() string { return "adoptcommit" }

// Registers implements model.Machine.
func (AdoptCommit) Registers(n int) int { return acRegCount }

// Init implements model.Machine.
func (AdoptCommit) Init(n, pid int, input model.Value) model.State {
	if input != "0" && input != "1" {
		panic(fmt.Sprintf("adoptcommit: input must be binary, got %q", string(input)))
	}
	return acState{v: input, phase: acWriteA}
}

type acPhase uint8

const (
	acWriteA acPhase = iota + 1
	acReadOppA
	acReadOppB
	acWriteB
	acRecheckA
	acDone
)

// acState is the immutable local state of one AdoptCommit process.
type acState struct {
	v model.Value
	// outcome is "C:<v>" or "A:<v>" once phase == acDone.
	outcome model.Value
	phase   acPhase
}

var _ model.State = acState{}

func regA(v model.Value) int {
	if v == "0" {
		return acRegA0
	}
	return acRegA1
}

func regB(v model.Value) int {
	if v == "0" {
		return acRegB0
	}
	return acRegB1
}

func opposite(v model.Value) model.Value {
	if v == "0" {
		return "1"
	}
	return "0"
}

// Pending implements model.State.
func (s acState) Pending() model.Op {
	switch s.phase {
	case acWriteA:
		return model.Op{Kind: model.OpWrite, Reg: regA(s.v), Arg: "1"}
	case acReadOppA, acRecheckA:
		return model.Op{Kind: model.OpRead, Reg: regA(opposite(s.v))}
	case acReadOppB:
		return model.Op{Kind: model.OpRead, Reg: regB(opposite(s.v))}
	case acWriteB:
		return model.Op{Kind: model.OpWrite, Reg: regB(s.v), Arg: "1"}
	case acDone:
		return model.Op{Kind: model.OpDecide, Arg: s.outcome}
	default:
		panic(fmt.Sprintf("adoptcommit: invalid phase %d", s.phase))
	}
}

// Next implements model.State.
func (s acState) Next(in model.Value) model.State {
	set := in == "1"
	switch s.phase {
	case acWriteA:
		return acState{v: s.v, phase: acReadOppA}
	case acReadOppA:
		if set {
			// Conflict: check whether the opposite value reached
			// its second stage.
			return acState{v: s.v, phase: acReadOppB}
		}
		return acState{v: s.v, phase: acWriteB}
	case acReadOppB:
		out := s.v
		if set {
			out = opposite(s.v)
		}
		return acState{v: s.v, outcome: "A:" + out, phase: acDone}
	case acWriteB:
		return acState{v: s.v, phase: acRecheckA}
	case acRecheckA:
		if set {
			return acState{v: s.v, outcome: "A:" + s.v, phase: acDone}
		}
		return acState{v: s.v, outcome: "C:" + s.v, phase: acDone}
	default:
		panic("adoptcommit: Next on terminated state")
	}
}

// AppendKey implements model.State.
func (s acState) AppendKey(dst []byte) []byte {
	return fmt.Appendf(dst, "AC|%s|%d|%s", string(s.v), s.phase, string(s.outcome))
}
