package consensus

import (
	"fmt"

	"repro/internal/model"
)

// KSet is obstruction-free k-set agreement — the generalisation of
// consensus the paper's Section 4 proposes as future work ("an Ω(n-k) space
// lower bound for k-set agreement"; the best protocols [BRS15] use n-k+1
// registers). This implementation takes the standard partitioning route:
// processes are split into k lanes and each lane runs its own DiskRace
// consensus on a private block of registers, so at most k distinct values
// are decided overall while Validity and obstruction freedom are inherited
// lane-wise.
//
// Space: n registers total (the k lane instances use one register per lane
// member). The specialised protocols of [BRS15] reach n-k+1; the gap
// between n and the conjectured Ω(n-k) is exactly the open problem the
// paper states, and internal/check.KSetReport is the machinery a future
// lower-bound construction would be verified with.
type KSet struct {
	// K is the number of lanes (maximum number of distinct decisions).
	K int
}

var _ model.Machine = KSet{}

// Name implements model.Machine.
func (m KSet) Name() string { return fmt.Sprintf("kset(%d)", m.K) }

// Registers implements model.Machine.
func (m KSet) Registers(n int) int { return n }

// Init implements model.Machine: process pid joins lane pid mod K and runs
// DiskRace among its lane-mates on the lane's register block.
func (m KSet) Init(n, pid int, input model.Value) model.State {
	if m.K < 1 {
		panic("kset: K must be at least 1")
	}
	lane := pid % m.K
	laneSize, laneIndex, offset := lanePlacement(n, m.K, pid)
	inner := DiskRace{}.Init(laneSize, laneIndex, input)
	_ = lane
	return offsetState{inner: inner, offset: offset}
}

// lanePlacement computes, for process pid among n processes in k lanes, the
// size of its lane, its index within the lane, and the first register of
// the lane's block (lanes own contiguous register blocks, in lane order).
func lanePlacement(n, k, pid int) (laneSize, laneIndex, offset int) {
	lane := pid % k
	laneSize = n / k
	if lane < n%k {
		laneSize++
	}
	laneIndex = pid / k
	// Registers of lanes 0..lane-1 precede ours.
	for l := 0; l < lane; l++ {
		s := n / k
		if l < n%k {
			s++
		}
		offset += s
	}
	return laneSize, laneIndex, offset
}

// offsetState adapts an inner protocol state to a register block at a fixed
// offset: every register index in the inner protocol's operations is
// shifted. It is how sub-protocols compose into one shared register file.
type offsetState struct {
	inner  model.State
	offset int
}

var _ model.State = offsetState{}

// Pending implements model.State.
func (s offsetState) Pending() model.Op {
	op := s.inner.Pending()
	switch op.Kind {
	case model.OpRead, model.OpWrite:
		op.Reg += s.offset
	}
	return op
}

// Next implements model.State.
func (s offsetState) Next(in model.Value) model.State {
	return offsetState{inner: s.inner.Next(in), offset: s.offset}
}

// AppendKey implements model.State: "O<offset>[<inner key>]".
func (s offsetState) AppendKey(dst []byte) []byte {
	dst = fmt.Appendf(dst, "O%d[", s.offset)
	dst = s.inner.AppendKey(dst)
	return append(dst, ']')
}
