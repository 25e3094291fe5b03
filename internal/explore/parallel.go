package explore

import (
	"context"
	"sync"

	"repro/internal/model"
)

// The level-synchronous engine behind Reach. Each BFS level is split into
// contiguous chunks; workers expand chunks concurrently, racing the shared
// fingerprint set for deduplication and recording the fresh children they
// won in per-chunk slots. The coordinator then merges the chunks in index
// order, so IDs, visit order and cap behaviour are independent of the
// worker count; only the choice of representative among same-level
// duplicates (and hence the exact witness path) can vary between runs,
// which is safe because equal fingerprints mean equal canonical keys.
//
// Workers step packed records through a per-goroutine memoising stepper
// (model.PackedStepper), so each surviving child is a fixed-width packed
// record patched from its parent's — one state field, plus one value field
// when the parent was write-poised — and the per-transition cost is a
// memoised step, a raw-record pre-filter, a canonical fingerprint and at
// most two dictionary lookups, with no per-child slice allocations. The
// equivalence tests hold the engine to a naive Config-level BFS
// (naive_test.go) and require identical results.

// chunksPerWorker over-partitions each level so a slow chunk does not
// leave the rest of the pool idle.
const chunksPerWorker = 4

// cancelPollStride is how many transitions a worker expands between polls
// of the context and the soft configuration cap.
const cancelPollStride = 512

// minChunkSize floors the per-chunk work so tiny levels do not drown in
// dispatch overhead (a variable so the equivalence tests can force many
// chunks onto small spaces).
var minChunkSize = 64

// childSlot records one fresh (first-visit) child produced by a worker,
// pending the coordinator's deterministic merge: the fingerprint it won
// the visited set with, and via, the connecting move in its
// model.PackMove encoding — the form the node forest retains.
type childSlot struct {
	fp     Fingerprint
	via    uint32
	parent int32
}

// chunk is one contiguous slice [lo,hi) of the level being expanded, plus
// the expansion output. Slot and arena buffers persist across levels to
// keep the steady state allocation-free. words holds the packed record of
// slots[i] at [i*stride, (i+1)*stride).
type chunk struct {
	lo, hi   int
	slots    []childSlot
	words    []uint64
	dupSteps int
	err      error
	// Per-chunk instrumentation deltas, folded into per-level metrics by
	// the coordinator after levelWG.Wait (so they need no atomics): rawHits
	// counts transitions screened out by the rawSeen pre-filter (a subset
	// of dupSteps), stepHits/stepMisses the stepper memo outcomes.
	rawHits    int
	stepHits   uint64
	stepMisses uint64
}

// workerScratch is the per-goroutine reusable state: the packed transition
// engine with its memos, child and move buffers, and the key hasher. The
// packed pieces are built lazily on the first chunk the goroutine expands.
type workerScratch struct {
	stepper    *model.PackedStepper
	childWords []uint64
	moves      []model.Move
	hasher
}

func (ws *workerScratch) initPacked(codec *model.PackedCodec) {
	if ws.stepper != nil {
		return
	}
	ws.stepper = codec.NewStepper()
	ws.childWords = make([]uint64, codec.Words())
}

// search carries the state of one Reach call across levels.
type search struct {
	ctx        context.Context
	opts       Options
	p          []int
	maxConfigs int
	visited    *fpSet
	// rawSeen pre-filters packed transitions by the hash of the packed
	// record itself, skipping the canonical key for transitions that
	// reproduce an already-seen record verbatim. It is a pure cache over
	// instance-scoped dictionary ids: never persisted in checkpoints (a
	// resumed search just rebuilds it) and never mixed with visited.
	rawSeen *fpSet
	scratch *workerScratch // coordinator's own scratch, for inline expansion and visits
	metrics searchMetrics  // flight-recorder instruments, resolved once per Reach

	// codec is the packed-configuration dictionary shared by all workers;
	// stride is codec.Words().
	codec  *model.PackedCodec
	stride int

	level  []levelEntry // the level currently being expanded (read-only to workers)
	chunks []chunk

	workCh  chan *chunk
	levelWG sync.WaitGroup
	wg      sync.WaitGroup
	started bool
}

// expandLevel expands every entry of level and returns the populated
// chunks in their deterministic index order. Small levels (or Workers: 1)
// are expanded inline on the calling goroutine; larger ones fan out to the
// lazily started worker pool.
func (s *search) expandLevel(level []levelEntry) []chunk {
	s.level = level
	workers := s.opts.workers()
	if workers <= 1 || len(level) < parallelThreshold {
		s.ensureChunks(1)
		ch := &s.chunks[0]
		ch.lo, ch.hi = 0, len(level)
		s.expandRange(ch, s.scratch)
		return s.chunks[:1]
	}
	if !s.started {
		s.startWorkers(workers)
	}
	chunkSize := (len(level) + workers*chunksPerWorker - 1) / (workers * chunksPerWorker)
	if chunkSize < minChunkSize {
		chunkSize = minChunkSize
	}
	n := (len(level) + chunkSize - 1) / chunkSize
	s.ensureChunks(n)
	s.levelWG.Add(n)
	for i := 0; i < n; i++ {
		ch := &s.chunks[i]
		ch.lo = i * chunkSize
		ch.hi = min(ch.lo+chunkSize, len(level))
		s.workCh <- ch
	}
	s.levelWG.Wait()
	return s.chunks[:n]
}

// expandRange expands the level entries in [ch.lo, ch.hi), racing the
// shared visited set. It bails out early when the context is cancelled or
// the visited set has already overflowed the configuration cap; both
// conditions guarantee the coordinator caps the result, so truncated
// output is never mistaken for exhaustion. A packing failure (dictionary
// capacity) is parked in ch.err for the coordinator.
//
// The loop never builds a model.Config to decide a transition: moves are
// enumerated from the parent's interned state ids, transitions run through
// the per-worker stepper memo directly on the packed words, a raw-identity
// pre-filter (a hash of the packed record itself) screens out transitions
// that rebuild an already-produced record, and the canonical fingerprint
// is taken from the packed record (hasher.fingerprintPacked). No child is
// unpacked here: the coordinator unpacks the winners, one at a time, for
// the visit callback.
//
// The pre-filter is a pure shortcut: packed records are exact, so a
// raw-duplicate's canonical fingerprint was already added to the visited
// set when its identical twin was processed — skipping it cannot change
// the visited set, the visit sequence or the counters.
func (s *search) expandRange(ch *chunk, ws *workerScratch) {
	ch.slots = ch.slots[:0]
	ch.words = ch.words[:0]
	ch.dupSteps = 0
	ch.err = nil
	ch.rawHits = 0
	ch.stepHits, ch.stepMisses = 0, 0
	ws.initPacked(s.codec)
	h0, m0 := ws.stepper.Stats()
	defer func() {
		h, m := ws.stepper.Stats()
		ch.stepHits, ch.stepMisses = h-h0, m-m0
	}()
	steps := 0
	for i := ch.lo; i < ch.hi; i++ {
		ent := &s.level[i]
		ws.moves = AppendPackedMoves(ws.moves[:0], s.codec, ws.stepper, ent.words, s.p)
		for _, mv := range ws.moves {
			steps++
			if steps%cancelPollStride == 0 {
				if s.ctx.Err() != nil || s.visited.Len() > s.maxConfigs {
					return
				}
			}
			if err := ws.stepper.StepPacked(ws.childWords, ent.words, mv.Pid, mv.Coin); err != nil {
				ch.err = err
				return
			}
			if !s.rawSeen.Add(MixWords(ws.childWords)) {
				ch.rawHits++
				ch.dupSteps++
				continue
			}
			fp := ws.fingerprintPacked(&s.opts, s.codec, ws.childWords)
			if !s.visited.Add(fp) {
				ch.dupSteps++
				continue
			}
			via, err := model.PackMove(mv)
			if err != nil {
				ch.err = err
				return
			}
			ch.words = append(ch.words, ws.childWords...)
			ch.slots = append(ch.slots, childSlot{fp: fp, via: via, parent: ent.id})
		}
	}
}

func (s *search) ensureChunks(n int) {
	for len(s.chunks) < n {
		s.chunks = append(s.chunks, chunk{})
	}
}

func (s *search) startWorkers(n int) {
	s.workCh = make(chan *chunk, n*chunksPerWorker)
	s.wg.Add(n)
	for i := 0; i < n; i++ {
		go func() {
			defer s.wg.Done()
			ws := new(workerScratch)
			for ch := range s.workCh {
				s.expandRange(ch, ws)
				s.levelWG.Done()
			}
		}()
	}
	s.started = true
}

// stopWorkers shuts the pool down; safe to call whether or not it started.
func (s *search) stopWorkers() {
	if s.started {
		close(s.workCh)
		s.wg.Wait()
	}
}
