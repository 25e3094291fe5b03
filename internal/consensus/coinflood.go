package consensus

import (
	"fmt"
	"strings"

	"repro/internal/model"
)

// CoinFlood is a deliberately naive randomized two-process protocol:
// Flood's scan structure with the submissive-tie rule replaced by a fair
// coin. On a non-unanimous scan that shows both values, the process flips a
// coin to pick which observed value to adopt; a scan showing only the
// opposite value adopts it outright, and deciding still requires two
// consecutive unanimous scans.
//
// It is BROKEN, and the way it is broken is the protocol's reason to exist.
// In the paper's model (and in this framework), coin outcomes are resolved
// by the adversary: "nondeterministic solo terminating" protocols must be
// safe for EVERY outcome sequence, because the scheduler can condition on
// flips. Flood's submissive-tie rule was load-bearing — a laggard observing
// a tie might be staring at the ruins of a decided value, so it must defer.
// Giving the choice to a coin lets the adversary steer the laggard into
// pushing its own value over a decision: the checker, which branches on
// every model.OpCoin, finds the violation in a few hundred configurations
// (TestCoinFloodAdversarialCoins), while naive random testing would need a
// specific flip sequence AND a specific interleaving to stumble on it.
// Correct randomized protocols (internal/native's conciliator + adopt-
// commit) are structured so that coins only ever choose between outcomes
// that are all safe — the executable moral of this counterexample.
type CoinFlood struct{}

var _ model.Machine = CoinFlood{}

// Name implements model.Machine.
func (CoinFlood) Name() string { return "coinflood" }

// Registers implements model.Machine.
func (CoinFlood) Registers(n int) int { return n }

// Init implements model.Machine.
func (CoinFlood) Init(n, pid int, input model.Value) model.State {
	if n != 2 {
		panic(fmt.Sprintf("coinflood: built for exactly 2 processes, got %d", n))
	}
	if input != "0" && input != "1" {
		panic(fmt.Sprintf("coinflood: input must be binary, got %q", string(input)))
	}
	return coinFloodState{n: n, pref: input, phase: floodScan}
}

// coinFloodState mirrors floodState with an extra coin phase.
type coinFloodState struct {
	n          int
	pref       model.Value
	phase      floodPhase
	idx        int
	seen       string
	confirming bool
	// flipping is set when the state is poised on a coin whose outcome
	// picks the preference for the scan recorded in seen.
	flipping bool
}

var _ model.State = coinFloodState{}

// Pending implements model.State.
func (s coinFloodState) Pending() model.Op {
	if s.flipping {
		return model.Op{Kind: model.OpCoin}
	}
	switch s.phase {
	case floodScan:
		return model.Op{Kind: model.OpRead, Reg: s.idx}
	case floodWrite:
		return model.Op{Kind: model.OpWrite, Reg: s.idx, Arg: s.pref}
	case floodDone:
		return model.Op{Kind: model.OpDecide, Arg: s.pref}
	default:
		panic(fmt.Sprintf("coinflood: invalid phase %d", s.phase))
	}
}

var _ model.OpPeeker = coinFloodState{}

// PeekOp implements model.OpPeeker.
func (s coinFloodState) PeekOp() (model.OpKind, int) {
	if s.flipping {
		return model.OpCoin, 0
	}
	switch s.phase {
	case floodScan:
		return model.OpRead, s.idx
	case floodWrite:
		return model.OpWrite, s.idx
	case floodDone:
		return model.OpDecide, 0
	default:
		panic(fmt.Sprintf("coinflood: invalid phase %d", s.phase))
	}
}

// Next implements model.State.
func (s coinFloodState) Next(in model.Value) model.State {
	if s.flipping {
		// The coin outcome ("0" or "1") is adopted directly: both
		// values were observed in the scan, so validity is safe.
		next := s
		next.flipping = false
		next.pref = in
		return next.target()
	}
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
		return coinFloodState{n: s.n, pref: s.pref, phase: floodScan}
	default:
		panic("coinflood: Next on terminated state")
	}
}

// evaluate applies the decision/adoption rules to a completed scan.
func (s coinFloodState) evaluate(seen string) model.State {
	zeros := strings.Count(seen, "0")
	ones := strings.Count(seen, "1")
	if zeros == s.n || ones == s.n {
		v := model.Value("0")
		if ones == s.n {
			v = "1"
		}
		if s.confirming && s.pref == v {
			return coinFloodState{n: s.n, pref: v, phase: floodDone}
		}
		return coinFloodState{n: s.n, pref: v, phase: floodScan, confirming: true}
	}
	next := coinFloodState{n: s.n, pref: s.pref, phase: floodScan, seen: seen}
	switch {
	case zeros > 0 && ones > 0:
		// Both values observed: the coin picks.
		next.flipping = true
		return next
	case zeros > 0 && s.pref == "1":
		next.pref = "0"
	case ones > 0 && s.pref == "0":
		next.pref = "1"
	}
	return next.target()
}

// target selects the register to repair for the current preference, based
// on the scan stored in seen.
func (s coinFloodState) target() model.State {
	idx := strings.IndexFunc(s.seen, func(r rune) bool { return r != runeOf(s.pref) })
	if idx < 0 {
		// The scan already agrees with the (possibly coin-chosen)
		// preference everywhere; rescan.
		return coinFloodState{n: s.n, pref: s.pref, phase: floodScan}
	}
	return coinFloodState{n: s.n, pref: s.pref, phase: floodWrite, idx: idx}
}

// AppendKey implements model.State.
func (s coinFloodState) AppendKey(dst []byte) []byte {
	flags := make([]byte, 0, 2)
	if s.confirming {
		flags = append(flags, 'y')
	}
	if s.flipping {
		flags = append(flags, 'f')
	}
	return fmt.Appendf(dst, "CF%d|%s|%d|%d|%s|%s",
		s.n, string(s.pref), s.phase, s.idx, string(flags), s.seen)
}
