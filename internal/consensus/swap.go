package consensus

import (
	"fmt"

	"repro/internal/model"
)

// SwapPair is deterministic wait-free 2-process consensus from a single
// swap register — the historyless object of the paper's Section 4. Each
// process atomically swaps its input into the register: the one that gets
// back ⊥ arrived first and decides its own input; the other gets back the
// winner's input and decides that.
//
// With read/write registers this is impossible deterministically [LAA87],
// and the paper's Section 4 explains why its covering technique cannot even
// prove space bounds against swap: "when a process performs swap, it sees
// the value it overwrote", so a block write by swappers cannot silently
// obliterate — TestSwapDefeatsHiding demonstrates that failure of Lemma 2's
// hiding step concretely.
type SwapPair struct{}

var _ model.Machine = SwapPair{}

// Name implements model.Machine.
func (SwapPair) Name() string { return "swappair" }

// Registers implements model.Machine: one swap register.
func (SwapPair) Registers(n int) int { return 1 }

// Init implements model.Machine.
func (SwapPair) Init(n, pid int, input model.Value) model.State {
	if n != 2 {
		panic(fmt.Sprintf("swappair: built for exactly 2 processes, got %d", n))
	}
	if input != "0" && input != "1" {
		panic(fmt.Sprintf("swappair: input must be binary, got %q", string(input)))
	}
	return swapState{input: input}
}

type swapState struct {
	input   model.Value
	swapped bool
	decided model.Value
}

var _ model.State = swapState{}

// Pending implements model.State.
func (s swapState) Pending() model.Op {
	if !s.swapped {
		return model.Op{Kind: model.OpSwap, Reg: 0, Arg: s.input}
	}
	return model.Op{Kind: model.OpDecide, Arg: s.decided}
}

// Next implements model.State.
func (s swapState) Next(old model.Value) model.State {
	if s.swapped {
		panic("swappair: Next on terminated state")
	}
	decided := s.input
	if old != model.Bottom {
		// Someone swapped before us; their value wins.
		decided = old
	}
	return swapState{input: s.input, swapped: true, decided: decided}
}

// AppendKey implements model.State.
func (s swapState) AppendKey(dst []byte) []byte {
	return fmt.Appendf(dst, "S|%s|%t|%s", string(s.input), s.swapped, string(s.decided))
}
