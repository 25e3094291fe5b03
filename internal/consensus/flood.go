package consensus

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/model"
)

// Flood is an n-register obstruction-free binary consensus protocol with a
// finite reachable state space (register alphabet {⊥, 0, 1}), in the spirit
// of the anonymous n-register protocols [BRS15, Zhu15] cited in Section 1 of
// the paper.
//
// Each process keeps a preference, initially its input, and repeats:
//
//  1. Scan: read registers R[0..n-1] one at a time.
//  2. If every register held the same value v ≠ ⊥:
//     a. adopt v, and
//     b. if the previous scan was also unanimously v (a "double collect"),
//     decide v; otherwise rescan to confirm.
//  3. Otherwise, clear any pending confirmation; adopt the opposite value if
//     it appears in the scan with at least equal count ("submissive ties");
//     then write the preference to the lowest-indexed register whose scanned
//     value differed from it, and go to 1.
//
// Two ingredients are load-bearing, and both were found by exhaustive model
// checking rather than taken on faith:
//
//   - Submissive ties (step 3). With strict-majority adoption, a laggard
//     holding a stale covering write can obliterate a freshly decided value,
//     observe a tie, push its own value through, and decide it — an
//     agreement violation at n=2. GreedyFlood preserves the broken rule and
//     TestGreedyFloodIsBroken shows the checker catching it.
//
//   - Double collect (step 2b). Scans are not atomic: a scan can return a
//     unanimous picture assembled from different epochs while the opposite
//     value is being flooded concurrently. With single-scan deciding there
//     is an agreement violation at n=3 (EagerFlood preserves it, see
//     TestEagerFloodIsBroken).
//
// With both ingredients, Flood is exhaustively verified for n=2 — and still
// has an agreement violation at n=3 (TestFloodN3CoveringAttack exhibits it):
// laggards whose scans straddle a decision can erase every trace of the
// decided value and then assemble two clean unanimous scans of the other
// value, because values from different epochs are indistinguishable in a
// finite register alphabet. This repository treats that counterexample as
// the empirical companion of the paper's remark that the lower bound holds
// "even if the registers are of unbounded size": unboundedness is not a
// luxury the bound graciously tolerates — every known correct protocol needs
// unbounded timestamps, as DiskRace (this package) illustrates. Flood is
// therefore the didactic member of the family (a correct, finite-state,
// 2-register protocol for n=2) while DiskRace is the general upper bound.
//
// Validity: registers only ever hold proposed values and deciding requires
// observing a full array of them. Solo termination: running alone, after the
// first scan the preference never flips again, so at most n writes plus one
// confirmation scan later the process decides — O(n²) solo steps.
type Flood struct{}

var _ model.Machine = Flood{}

// Name implements model.Machine.
func (Flood) Name() string { return "flood" }

// Registers implements model.Machine: one register per process.
func (Flood) Registers(n int) int { return n }

// Init implements model.Machine.
func (Flood) Init(n, pid int, input model.Value) model.State {
	if input != "0" && input != "1" {
		panic(fmt.Sprintf("flood: input must be binary, got %q", string(input)))
	}
	return floodState{rules: defaultFloodRules, n: n, pref: input, phase: floodScan}
}

// floodRules parameterises the protocol family so the deliberately broken
// variants (GreedyFlood, EagerFlood) share one implementation with Flood.
type floodRules struct {
	// name tags state keys so variants never alias each other.
	name string
	// submissiveTies adopts the opposite value on count ties.
	submissiveTies bool
	// doubleCollect requires two consecutive unanimous scans to decide.
	doubleCollect bool
}

var defaultFloodRules = floodRules{name: "F", submissiveTies: true, doubleCollect: true}

type floodPhase uint8

const (
	floodScan floodPhase = iota + 1
	floodWrite
	floodDone
)

// floodState is the immutable local state of one Flood process. It carries
// no process identifier: the protocol is anonymous.
type floodState struct {
	rules floodRules
	n     int
	pref  model.Value
	phase floodPhase
	// idx is the next register to read (floodScan) or the register about
	// to be written (floodWrite).
	idx int
	// seen holds the values read so far in the current scan, one byte per
	// register: '_' for ⊥, otherwise the value itself.
	seen string
	// confirming is true when the previous scan was unanimously pref and
	// the current scan decides on a repeat.
	confirming bool
}

var _ model.State = floodState{}

// Pending implements model.State.
func (s floodState) Pending() model.Op {
	switch s.phase {
	case floodScan:
		return model.Op{Kind: model.OpRead, Reg: s.idx}
	case floodWrite:
		return model.Op{Kind: model.OpWrite, Reg: s.idx, Arg: s.pref}
	case floodDone:
		return model.Op{Kind: model.OpDecide, Arg: s.pref}
	default:
		panic(fmt.Sprintf("flood: invalid phase %d", s.phase))
	}
}

var _ model.OpPeeker = floodState{}

// PeekOp implements model.OpPeeker.
func (s floodState) PeekOp() (model.OpKind, int) {
	switch s.phase {
	case floodScan:
		return model.OpRead, s.idx
	case floodWrite:
		return model.OpWrite, s.idx
	case floodDone:
		return model.OpDecide, 0
	default:
		panic(fmt.Sprintf("flood: invalid phase %d", s.phase))
	}
}

// Next implements model.State.
func (s floodState) Next(in model.Value) model.State {
	switch s.phase {
	case floodScan:
		seen := s.seen + string(runeOf(in))
		if s.idx+1 < s.n {
			next := s
			next.idx++
			next.seen = seen
			return next
		}
		return s.evaluate(seen)
	case floodWrite:
		// Write acknowledged; rescan from the start.
		return floodState{rules: s.rules, n: s.n, pref: s.pref, phase: floodScan}
	default:
		panic("flood: Next on terminated state")
	}
}

// evaluate applies steps 2-3 of the protocol to a completed scan.
func (s floodState) evaluate(seen string) model.State {
	zeros := strings.Count(seen, "0")
	ones := strings.Count(seen, "1")
	// Step 2: unanimous non-⊥ scan adopts, then decides on a repeat.
	if zeros == s.n || ones == s.n {
		v := model.Value("0")
		if ones == s.n {
			v = "1"
		}
		if !s.rules.doubleCollect || (s.confirming && s.pref == v) {
			return floodState{rules: s.rules, n: s.n, pref: v, phase: floodDone}
		}
		return floodState{rules: s.rules, n: s.n, pref: v, phase: floodScan, confirming: true}
	}
	// Step 3: adoption. Submissive ties adopt the opposite value whenever
	// it is present with at least equal count; the greedy variant demands
	// a strict majority.
	pref := s.pref
	if s.rules.submissiveTies {
		if pref == "0" && ones > 0 && ones >= zeros {
			pref = "1"
		} else if pref == "1" && zeros > 0 && zeros >= ones {
			pref = "0"
		}
	} else {
		if pref == "0" && ones > zeros {
			pref = "1"
		} else if pref == "1" && zeros > ones {
			pref = "0"
		}
	}
	// Repair the lowest register that disagreed with pref.
	target := strings.IndexFunc(seen, func(r rune) bool { return r != runeOf(pref) })
	if target < 0 {
		// Unreachable: a scan in which every register equals pref is
		// unanimous and was handled above. Kept as a safe fallback.
		return floodState{rules: s.rules, n: s.n, pref: pref, phase: floodScan}
	}
	return floodState{rules: s.rules, n: s.n, pref: pref, phase: floodWrite, idx: target}
}

// AppendKey implements model.State.
func (s floodState) AppendKey(dst []byte) []byte {
	dst = append(dst, s.rules.name...)
	dst = strconv.AppendInt(dst, int64(s.n), 10)
	dst = append(dst, '|')
	dst = append(dst, s.pref...)
	dst = append(dst, '|')
	dst = strconv.AppendInt(dst, int64(s.phase), 10)
	dst = append(dst, '|')
	dst = strconv.AppendInt(dst, int64(s.idx), 10)
	dst = append(dst, '|')
	confirm := byte('n')
	if s.confirming {
		confirm = 'y'
	}
	dst = append(dst, confirm, '|')
	return append(dst, s.seen...)
}

// runeOf maps a register value to its scan encoding.
func runeOf(v model.Value) rune {
	if v == model.Bottom {
		return '_'
	}
	return rune(v[0])
}
