package consensus

import (
	"math/bits"
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
// The key is assembled from one template per state and per register (a
// keyPart: the part's bytes with a placeholder for each round), rendered
// by renderState and renderBlock; appendKey collects the rounds,
// renumbers them and emits the parts. The packed form, AppendPackedKey,
// assembles the same parts from templates it caches per dictionary id, so
// both forms append the same bytes by construction. Scratch comes from a
// pool and a caller that reuses dst allocates nothing per configuration.
// Safe for concurrent use (each call takes its own pooled scratch), as
// model.Canonicaliser requires. Configurations of any other protocol fall
// back to their exact identity, Config.AppendKey.
func (DiskRace) AppendCanonicalKey(dst []byte, c model.Config) []byte {
	n := c.NumProcesses()
	sc := canonPool.Get().(*canonScratch)
	defer canonPool.Put(sc)
	sc.lits = sc.lits[:0]
	sc.rendered = sc.rendered[:0]
	for pid := 0; pid < n; pid++ {
		s, ok := c.State(pid).(diskState)
		if !ok {
			return c.AppendKey(dst)
		}
		var p keyPart
		sc.lits = p.renderState(sc.lits, &s)
		sc.rendered = append(sc.rendered, p)
	}
	for r := 0; r < c.NumRegisters(); r++ {
		var p keyPart
		sc.lits = p.renderBlock(sc.lits, decodeBlock(c.Register(r)))
		sc.rendered = append(sc.rendered, p)
	}
	sc.parts = sc.parts[:0]
	for i := range sc.rendered {
		sc.parts = append(sc.parts, &sc.rendered[i])
	}
	return sc.appendKey(dst, sc.lits, n)
}

var _ model.PackedCanonicaliser = DiskRace{}

// NewPackedKeyer implements model.PackedCanonicaliser: the returned keyer
// renders each state's and each register value's template once, the first
// time it meets the dictionary id, and keys every later record from the
// cached templates without building a configuration.
func (DiskRace) NewPackedKeyer(pc *model.PackedCodec) model.PackedKeyer {
	return &packedKeyer{pc: pc}
}

// Template states of a keyer's cache entries.
const (
	partUnseen  uint8 = iota // the id has not been rendered yet
	partReady                // the template is rendered
	partForeign              // the id names a state of another protocol
)

// keyPart is the canonical-key template of one DiskRace state or register
// block: the part's key bytes, lits[start:end) of some literal arena, with
// one placeholder byte for each of its rounds — round i is rounds[i]
// before renumbering and its placeholder is lits[cuts[i]]. A state has
// four rounds (ballot, ownBal, maxK, maxBal), a block two (mbal, bal).
type keyPart struct {
	start, end uint32
	cuts       [4]uint32
	rounds     [4]int
	slots      uint8
	status     uint8
}

// renderState renders s's template into lits and returns the grown arena.
// Unlike diskState.AppendKey the part omits n (every process of one
// configuration shares it) and flags an abort with '!'; it ends with the
// field separator.
func (p *keyPart) renderState(lits []byte, s *diskState) []byte {
	p.start, p.slots = uint32(len(lits)), 0
	lits = append(lits, 'D')
	lits = strconv.AppendInt(lits, int64(s.pid), 10)
	lits = append(lits, '|')
	lits = append(lits, s.input...)
	lits = append(lits, '|')
	lits = p.ballot(lits, s.ballot)
	lits = append(lits, '|')
	lits = strconv.AppendInt(lits, int64(s.phase), 10)
	lits = append(lits, '|')
	lits = strconv.AppendInt(lits, int64(s.idx), 10)
	lits = append(lits, '|')
	lits = p.ballot(lits, s.ownBal)
	lits = append(lits, '|')
	lits = append(lits, s.ownInp...)
	lits = append(lits, '|')
	lits = append(lits, s.proposal...)
	lits = append(lits, '|')
	lits = p.round(lits, s.maxK)
	if s.aborting {
		lits = append(lits, '!')
	}
	lits = append(lits, '|')
	lits = p.ballot(lits, s.maxBal)
	lits = append(lits, '|')
	lits = append(lits, s.balInp...)
	lits = append(lits, '\x1f')
	p.end = uint32(len(lits))
	return lits
}

// renderBlock renders b's template, the register encoding "mbal;bal;inp"
// followed by the field separator, into lits and returns the grown arena.
func (p *keyPart) renderBlock(lits []byte, b diskBlock) []byte {
	p.start, p.slots = uint32(len(lits)), 0
	lits = p.ballot(lits, b.Mbal)
	lits = append(lits, ';')
	lits = p.ballot(lits, b.Bal)
	lits = append(lits, ';')
	lits = append(lits, b.Inp...)
	lits = append(lits, '\x1f')
	p.end = uint32(len(lits))
	return lits
}

// round appends the placeholder of round k.
func (p *keyPart) round(lits []byte, k int) []byte {
	p.cuts[p.slots] = uint32(len(lits))
	p.rounds[p.slots] = k
	p.slots++
	return append(lits, '0')
}

// ballot renders b as "k.pid" with a placeholder for the round.
func (p *keyPart) ballot(lits []byte, b Ballot) []byte {
	lits = p.round(lits, b.K)
	lits = append(lits, '.')
	return strconv.AppendInt(lits, int64(b.Pid), 10)
}

// appendTo emits the part with its rounds renumbered by remap: the
// template is copied whole and each placeholder overwritten with its
// round's digit, unless a round needs two digits or more.
func (p *keyPart) appendTo(dst, lits []byte, remap roundRemap) []byte {
	n := len(dst) - int(p.start)
	dst = append(dst, lits[p.start:p.end]...)
	for i := uint8(0); i < p.slots; i++ {
		k := remap.apply(p.rounds[i])
		if k >= 10 {
			return p.appendWide(dst[:n+int(p.start)], lits, remap)
		}
		dst[n+int(p.cuts[i])] = byte('0' + k)
	}
	return dst
}

// appendWide is appendTo for parts with a renumbered round of two digits
// or more: the template's segments between placeholders, each round in
// decimal.
func (p *keyPart) appendWide(dst, lits []byte, remap roundRemap) []byte {
	at := p.start
	for i := uint8(0); i < p.slots; i++ {
		dst = append(dst, lits[at:p.cuts[i]]...)
		dst = strconv.AppendInt(dst, int64(remap.apply(p.rounds[i])), 10)
		at = p.cuts[i] + 1
	}
	return append(dst, lits[at:p.end]...)
}

// canonScratch is the reusable working set of one key assembly: the parts
// of the configuration (its states' first, then its registers'), the
// rounds they carry and their renumbering, and — for AppendCanonicalKey —
// the arena and the values the parts are rendered into. The remap's
// from/to slices alias rounds/to, so everything is reclaimed together.
type canonScratch struct {
	lits     []byte
	rendered []keyPart
	parts    []*keyPart
	rounds   []int
	to       []int
}

// appendKey appends the canonical key of sc.parts, whose first nstates
// are state parts, with literals in lits: the rounds of every part are
// collected and renumbered, then the state parts, the section separator
// and the register parts are emitted.
func (sc *canonScratch) appendKey(dst, lits []byte, nstates int) []byte {
	// Rounds below 64 — all but pathological ones — are collected as a
	// bit set, which lists them sorted and distinct and lets the remap
	// find a round's rank with one popcount.
	var set uint64
	wide := false
	for _, p := range sc.parts {
		for _, k := range p.rounds[:p.slots] {
			if uint(k) < 64 {
				set |= 1 << uint(k)
			} else {
				wide = true
			}
		}
	}
	set &^= 1 // round 0 is never renumbered
	sc.rounds = sc.rounds[:0]
	if wide {
		for _, p := range sc.parts {
			for _, k := range p.rounds[:p.slots] {
				sc.rounds = insertRound(sc.rounds, k)
			}
		}
	} else {
		for b := set; b != 0; b &= b - 1 {
			sc.rounds = append(sc.rounds, bits.TrailingZeros64(b))
		}
	}
	remap := buildRoundRemapInto(sc.rounds, sc.to)
	sc.to = remap.to
	if !wide {
		remap.set = set
	}
	for _, p := range sc.parts[:nstates] {
		dst = p.appendTo(dst, lits, remap)
	}
	dst = append(dst, '\x1e')
	for _, p := range sc.parts[nstates:] {
		dst = p.appendTo(dst, lits, remap)
	}
	return dst
}

var canonPool = sync.Pool{New: func() any { return new(canonScratch) }}

// packedKeyer is DiskRace's model.PackedKeyer: templates cached per state
// id and per value id of one codec, rendered into one literal arena.
type packedKeyer struct {
	pc     *model.PackedCodec
	lits   []byte
	states []keyPart
	blocks []keyPart
	sc     canonScratch
	// Unpack scratch for the exact-identity fallback.
	ustates []model.State
	uregs   []model.Value
}

// AppendPackedKey implements model.PackedKeyer.
func (k *packedKeyer) AppendPackedKey(dst []byte, words []uint64) []byte {
	pc := k.pc
	n := pc.NumProcesses()
	// Rendering a template may grow its cache; a part collected earlier
	// then points into the old backing array, which keeps it intact.
	k.sc.parts = k.sc.parts[:0]
	for pid := 0; pid < n; pid++ {
		p := k.statePart(pc.StateID(words, pid))
		if p.status == partForeign {
			return k.exact(dst, words)
		}
		k.sc.parts = append(k.sc.parts, p)
	}
	for r := 0; r < pc.NumRegisters(); r++ {
		k.sc.parts = append(k.sc.parts, k.blockPart(pc.ValueID(words, r)))
	}
	return k.sc.appendKey(dst, k.lits, n)
}

// statePart returns the template of state id, rendering it on first use.
func (k *packedKeyer) statePart(id uint32) *keyPart {
	if int(id) < len(k.states) && k.states[id].status != partUnseen {
		return &k.states[id]
	}
	k.states = growParts(k.states, id)
	p := &k.states[id]
	st, ok := k.pc.State(id)
	if !ok {
		panic("consensus: packed key of an uninterned state id")
	}
	s, ok := st.(diskState)
	if !ok {
		p.status = partForeign
		return p
	}
	k.lits = p.renderState(k.lits, &s)
	p.status = partReady
	return p
}

// blockPart returns the template of register value id, rendering it on
// first use.
func (k *packedKeyer) blockPart(id uint32) *keyPart {
	if int(id) < len(k.blocks) && k.blocks[id].status != partUnseen {
		return &k.blocks[id]
	}
	k.blocks = growParts(k.blocks, id)
	p := &k.blocks[id]
	v, ok := k.pc.Value(id)
	if !ok {
		panic("consensus: packed key of an uninterned value id")
	}
	k.lits = p.renderBlock(k.lits, decodeBlock(v))
	p.status = partReady
	return p
}

// growParts extends parts, doubling, until it indexes id.
func growParts(parts []keyPart, id uint32) []keyPart {
	for int(id) >= len(parts) {
		parts = append(parts, make([]keyPart, len(parts)+64)...)
	}
	return parts
}

// exact appends the exact identity of a record holding a state of another
// protocol, as AppendCanonicalKey does for its configuration.
func (k *packedKeyer) exact(dst []byte, words []uint64) []byte {
	if k.ustates == nil {
		k.ustates = make([]model.State, k.pc.NumProcesses())
		k.uregs = make([]model.Value, k.pc.NumRegisters())
	}
	c, err := k.pc.UnpackInto(words, k.ustates, k.uregs)
	if err != nil {
		panic(err)
	}
	return c.AppendKey(dst)
}

// roundRemap is an order-preserving, gap-capped renumbering of rounds,
// represented as two parallel sorted slices. When every round is below
// 64, set holds them as a bit set (round 0 excluded) and a round's index
// in from is its rank in the set.
type roundRemap struct {
	from []int
	to   []int
	set  uint64
}

func (m roundRemap) apply(k int) int {
	if k == 0 {
		return 0
	}
	if m.set != 0 {
		return m.to[bits.OnesCount64(m.set&(1<<uint(k)-1))]
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
