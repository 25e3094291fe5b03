package consensus

import (
	"strconv"
	"sync"

	"repro/internal/model"
)

// AppendCanonicalKey appends a state identity for DiskRace configurations
// to dst and returns the extended slice. The identity quotients away the
// absolute magnitude of ballot rounds, shrinking the protocol's unbounded
// reachable space to a finite (though still large) quotient for exhaustive
// search.
//
// The abstraction: collect every round number occurring anywhere in the
// configuration (register blocks and local states) and renumber them
// order-preservingly, anchoring the smallest positive round at 1 and capping
// gaps at 2. Two configurations with the same canonical key are bisimilar
// because every rule of DiskRace uses rounds only through
//
//   - the test "is this the null ballot" (round 0, preserved exactly),
//   - lexicographic comparison of (round, pid) pairs (order is preserved,
//     and pids are untouched), and
//   - the successor round max+1 taken of a round present in the
//     configuration (a gap of 1 — "r+1 collides with an existing round" —
//     is preserved exactly, and any gap ≥ 2 — "r+1 falls strictly below the
//     next round" — maps to a gap of exactly 2, which behaves identically
//     under a single successor).
//
// No rule mentions an absolute round constant other than 0 (initial ballots
// are minted once, before any steps), so anchoring at 1 is sound.
// TestDiskRaceCanonicalBisimulation property-checks this argument by
// shifting rounds of reachable configurations and running the shifted and
// unshifted copies in lockstep.
//
// The hot path takes its scratch from a pool, renumbers rounds into a
// reused buffer and appends register blocks field by field, so a caller
// that reuses dst allocates nothing per configuration. Safe for concurrent
// use (each call takes its own pooled scratch), as explore.Options.AppendKey
// requires. Configurations of any other protocol fall back to their exact
// identity, Config.AppendKey.
func (DiskRace) AppendCanonicalKey(dst []byte, c model.Config) []byte {
	n := c.NumProcesses()
	sc := canonPool.Get().(*canonScratch)
	defer canonPool.Put(sc)
	sc.rounds = sc.rounds[:0]
	sc.states = sc.states[:0]
	sc.blocks = sc.blocks[:0]
	for pid := 0; pid < n; pid++ {
		s, ok := c.State(pid).(diskState)
		if !ok {
			return c.AppendKey(dst)
		}
		sc.states = append(sc.states, s)
		sc.rounds = insertRound(sc.rounds, s.ballot.K)
		sc.rounds = insertRound(sc.rounds, s.ownBal.K)
		sc.rounds = insertRound(sc.rounds, s.maxK)
		sc.rounds = insertRound(sc.rounds, s.maxBal.K)
	}
	for r := 0; r < c.NumRegisters(); r++ {
		block := sc.decode(c.Register(r))
		sc.blocks = append(sc.blocks, block)
		sc.rounds = insertRound(sc.rounds, block.Mbal.K)
		sc.rounds = insertRound(sc.rounds, block.Bal.K)
	}
	remap := buildRoundRemapInto(sc.rounds, sc.to)
	sc.to = remap.to

	for i := range sc.states {
		dst = sc.states[i].appendCanonicalKey(dst, remap)
		dst = append(dst, '\x1f')
	}
	dst = append(dst, '\x1e')
	for _, block := range sc.blocks {
		block.Mbal.K = remap.apply(block.Mbal.K)
		block.Bal.K = remap.apply(block.Bal.K)
		dst = block.appendTo(dst)
		dst = append(dst, '\x1f')
	}
	return dst
}

// canonScratch is the reusable working set of one AppendCanonicalKey
// call. The remap's from/to slices alias rounds/to, so everything is
// reclaimed together when the scratch returns to the pool.
type canonScratch struct {
	rounds []int
	to     []int
	states []diskState
	blocks []diskBlock
	// decoded memoises decodeBlock by register content. Register values are
	// drawn from a small vocabulary that recurs across millions of
	// canonicalisations, so a pool-local cache turns the hot-path parse
	// into a map hit; clearing on overflow bounds a pathological run.
	decoded map[model.Value]diskBlock
}

func (sc *canonScratch) decode(v model.Value) diskBlock {
	block, ok := sc.decoded[v]
	if !ok {
		block = decodeBlock(v)
		if sc.decoded == nil {
			sc.decoded = make(map[model.Value]diskBlock, 256)
		} else if len(sc.decoded) >= 1<<16 {
			clear(sc.decoded)
		}
		sc.decoded[v] = block
	}
	return block
}

var canonPool = sync.Pool{New: func() any { return new(canonScratch) }}

// roundRemap is an order-preserving, gap-capped renumbering of rounds,
// represented as two parallel sorted slices (binary-search application).
type roundRemap struct {
	from []int
	to   []int
}

func (m roundRemap) apply(k int) int {
	if k == 0 {
		return 0
	}
	// from holds at most a handful of distinct rounds per configuration, so
	// a linear scan beats binary search (and keeps the out-of-range panic
	// for a round that was never collected).
	i := 0
	for m.from[i] < k {
		i++
	}
	return m.to[i]
}

// ballot returns b with its round renumbered.
func (m roundRemap) ballot(b Ballot) Ballot {
	return Ballot{K: m.apply(b.K), Pid: b.Pid}
}

// insertRound adds round k to rounds, a sorted list of distinct positive
// rounds, and returns the extended list. Round 0 (the null ballot) is
// never renumbered and is skipped. A configuration carries only a handful
// of distinct rounds among its 6n occurrences, so keeping the list sorted
// as it is collected costs a short scan per occurrence and no sort.
func insertRound(rounds []int, k int) []int {
	if k == 0 {
		return rounds
	}
	i := len(rounds)
	for i > 0 && rounds[i-1] > k {
		i--
	}
	if i > 0 && rounds[i-1] == k {
		return rounds
	}
	rounds = append(rounds, 0)
	copy(rounds[i+1:], rounds[i:])
	rounds[i] = k
	return rounds
}

// buildRoundRemapInto computes the renumbering of from, a sorted list of
// distinct positive rounds (insertRound builds it), appending the
// renumbered rounds into to's backing array (the hot path reuses it across
// calls).
func buildRoundRemapInto(from, to []int) roundRemap {
	to = to[:0]
	prevK, mapped := 0, 0
	for _, k := range from {
		gap := k - prevK
		switch {
		case prevK == 0:
			// Anchor: the smallest positive round maps to 1 (no
			// rule takes the successor of round 0, so its distance
			// from 0 is unobservable).
			gap = 1
		case gap > 2:
			// A single successor cannot cross a gap of 2, so
			// larger gaps are indistinguishable from 2.
			gap = 2
		}
		mapped += gap
		to = append(to, mapped)
		prevK = k
	}
	return roundRemap{from: from, to: to}
}

// appendCanonicalKey appends s's identity with every round renumbered by
// remap. Unlike diskState.AppendKey it omits n (every process of one
// configuration shares it) and flags an abort with '!'.
func (s *diskState) appendCanonicalKey(dst []byte, remap roundRemap) []byte {
	dst = append(dst, 'D')
	dst = strconv.AppendInt(dst, int64(s.pid), 10)
	dst = append(dst, '|')
	dst = append(dst, s.input...)
	dst = append(dst, '|')
	dst = appendBallot(dst, remap.ballot(s.ballot))
	dst = append(dst, '|')
	dst = strconv.AppendInt(dst, int64(s.phase), 10)
	dst = append(dst, '|')
	dst = strconv.AppendInt(dst, int64(s.idx), 10)
	dst = append(dst, '|')
	dst = appendBallot(dst, remap.ballot(s.ownBal))
	dst = append(dst, '|')
	dst = append(dst, s.ownInp...)
	dst = append(dst, '|')
	dst = append(dst, s.proposal...)
	dst = append(dst, '|')
	dst = strconv.AppendInt(dst, int64(remap.apply(s.maxK)), 10)
	if s.aborting {
		dst = append(dst, '!')
	}
	dst = append(dst, '|')
	dst = appendBallot(dst, remap.ballot(s.maxBal))
	dst = append(dst, '|')
	return append(dst, s.balInp...)
}
