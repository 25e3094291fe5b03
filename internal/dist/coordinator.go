package dist

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/explore"
	"repro/internal/faults"
	"repro/internal/obs"
)

// sliceInfo is the coordinator's book-keeping for one fingerprint slice.
type sliceInfo struct {
	owner     string // worker id, "" while unowned
	grantedAt time.Time

	// ckpt is the slice's newest checkpoint (segment bytes), the level it
	// finished, and that level's stats. The checkpoint is the slice's
	// barrier mark: the slice has marked the current level exactly when
	// ckptLevel equals it. Reassignment hands the checkpoint to the new
	// owner, and nothing ever clears it.
	ckpt      []byte
	ckptLevel int
	hasCkpt   bool
	steps     int64
	fresh     int64
	digest    explore.Fingerprint
	everOwned bool
	epoch     int

	reassigns int
}

// chunkKey addresses one exchange chunk.
type chunkKey struct{ level, from, to int }

// Coordinator owns the authoritative state of a distributed run: slice
// leases, the level barrier, retained exchange chunks and checkpoints, and
// the aggregated per-level witness stats. It runs no goroutines of its
// own — leases are expired lazily on every worker request, and a poll
// with nothing to hand out parks on its own request goroutine until the
// barrier moves — and its whole state sits behind one mutex, which the
// modest request rate (a handful of polls and posts per worker per level)
// never contends.
type Coordinator struct {
	spec   Spec
	rootFP explore.Fingerprint
	scope  *obs.Scope
	faults *faults.OpInjector

	mu      sync.Mutex
	workers map[string]time.Time // worker id -> last heard from
	slices  []sliceInfo
	level   int
	levels  []LevelStat
	steps   int64
	chunks  map[chunkKey][]byte
	done    bool
	witness []byte
	doneCh  chan struct{}

	// advanced is closed, and replaced, whenever the barrier moves: a
	// level closes or the run ends. Parked polls wait on it. parkCap
	// bounds a park below the worker client's request timeout.
	advanced chan struct{}
	parkCap  time.Duration

	// levelStart anchors the exchange-latency histogram: each chunk post
	// is observed as time-since-level-start, so the distribution shows how
	// long a level's frontier exchange actually takes (and a reassignment
	// mid-level shows up as a fat tail, not a lost sample).
	levelStart time.Time

	reassignTotal int64

	// Durability (S25). journal, when attached, records every accepted
	// mutation; replaying makes the apply paths journal-silent while
	// Recover feeds the WAL back through them. recovering gates the worker
	// surface 503 between AttachJournal finding prior state and Recover
	// finishing the sweep; chunk posts that land in that window are stashed
	// in pending (first write wins) and installed after the journal's own
	// copies. gen counts coordinator incarnations: each recovery bumps it
	// and rebases every slice epoch to gen<<20, so grants fenced before the
	// crash can never collide with post-restart epochs.
	journal    *Journal
	recovering bool
	replaying  bool
	pending    map[chunkKey][]byte
	gen        int
}

// ExchangeLatencyBoundsMicros buckets dist_exchange_us, the time from a
// level's start to each exchange-chunk arrival: sub-millisecond for
// in-memory test runs up to minutes for reassignment-delayed levels. The
// dist_poll_park_us histogram of parked-poll waits shares the buckets.
var ExchangeLatencyBoundsMicros = []int64{1000, 5000, 10000, 50000, 100000, 500000, 1000000, 5000000, 30000000, 120000000}

// NewCoordinator builds a coordinator for the run described by spec.
// rootFP, the root configuration's fingerprint, identifies the explored
// space: a journal written for another root is refused on attach.
func NewCoordinator(spec Spec, rootFP explore.Fingerprint, scope *obs.Scope) (*Coordinator, error) {
	if spec.Slices < 1 {
		return nil, fmt.Errorf("dist: %d slices", spec.Slices)
	}
	if spec.LeaseMS <= 0 {
		return nil, fmt.Errorf("dist: lease %dms", spec.LeaseMS)
	}
	if spec.FPVersion == 0 {
		spec.FPVersion = explore.FingerprintVersion
	}
	c := &Coordinator{
		spec:    spec,
		rootFP:  rootFP,
		scope:   scope,
		workers: make(map[string]time.Time),
		slices:  make([]sliceInfo, spec.Slices),
		chunks:  make(map[chunkKey][]byte),
		doneCh:  make(chan struct{}),

		advanced:   make(chan struct{}),
		parkCap:    maxPark,
		levelStart: time.Now(),
	}
	scope.Gauge("dist_slices").Set(int64(spec.Slices))
	// An empty space (MaxDepth 0 is unbounded, so only a pathological
	// spec hits this) still needs a consistent start.
	if spec.MaxDepth < 0 {
		return nil, fmt.Errorf("dist: negative max depth")
	}
	return c, nil
}

// SetFaults attaches an operation-fault injector; the tests use it to
// corrupt served chunks ("dist.chunk.get") and prove the workers reject
// and re-request them.
func (c *Coordinator) SetFaults(inj *faults.OpInjector) { c.faults = inj }

// Spec returns the run description.
func (c *Coordinator) Spec() Spec { return c.spec }

// Done is closed when the run completes.
func (c *Coordinator) Done() <-chan struct{} { return c.doneCh }

// Witness returns the rendered witness, or an error while the run is still
// in flight.
func (c *Coordinator) Witness() ([]byte, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.done {
		return nil, fmt.Errorf("dist: run still at level %d", c.level)
	}
	return c.witness, nil
}

// lease returns the lease duration.
func (c *Coordinator) lease() time.Duration {
	return time.Duration(c.spec.LeaseMS) * time.Millisecond
}

// maxPark caps a parked poll at half the worker client's request timeout,
// so a park under a long lease can never time the poll out.
const maxPark = clientTimeout / 2

// park returns how long a poll with nothing to hand out waits for the
// barrier to move: a fifth of the lease — the interval at which an idle
// worker used to re-poll, so lazy lease expiry is discovered no later than
// before — floored at 5ms and capped at parkCap.
func (c *Coordinator) park() time.Duration {
	return min(max(c.lease()/5, 5*time.Millisecond), c.parkCap)
}

// markedLocked reports whether slice s has posted its mark for the
// current level.
func (c *Coordinator) markedLocked(s int) bool {
	sl := &c.slices[s]
	return sl.hasCkpt && sl.ckptLevel == c.level
}

// heartbeatLocked renews w's lease and expires everyone else's.
func (c *Coordinator) heartbeatLocked(w string, now time.Time) {
	c.workers[w] = now
	lease := c.lease()
	for id, seen := range c.workers {
		if id == w || now.Sub(seen) <= lease {
			continue
		}
		delete(c.workers, id)
		c.scope.Event("dist_lease_expired")
		for s := range c.slices {
			if c.slices[s].owner == id {
				c.slices[s].owner = ""
			}
		}
	}
	c.scope.Gauge("dist_workers_live").Set(int64(len(c.workers)))
}

// grantLocked hands at most one unowned slice to w. One per poll keeps the
// initial distribution spread across however many workers attach, while a
// lone worker still accumulates every slice over successive polls. A
// regrant of a slice that ever had an owner counts as a reassignment.
func (c *Coordinator) grantLocked(w string, now time.Time) {
	for s := range c.slices {
		sl := &c.slices[s]
		if sl.owner != "" {
			continue
		}
		if sl.everOwned {
			sl.reassigns++
			c.reassignTotal++
			c.scope.Counter("dist_reassigns").Add(1)
		}
		sl.owner = w
		sl.grantedAt = now
		sl.everOwned = true
		sl.epoch++
		c.scope.Event("dist_grant")
		return
	}
}

// pollSlice is one slice's entry in a poll response. Epoch fences grants:
// it bumps on every grant, so a worker that was silently revoked and later
// regranted the same slice (its local state possibly stale by then) sees
// the epoch change and rebuilds from the checkpoint instead of trusting
// memory; its marks must carry the epoch they were computed under.
// Expanded is the coordinator's barrier mark for the current level.
type pollSlice struct {
	Slice     int  `json:"slice"`
	Epoch     int  `json:"epoch"`
	CkptLevel int  `json:"ckpt_level"`
	HasCkpt   bool `json:"has_ckpt"`
	Expanded  bool `json:"expanded"`
}

// pollResponse is the authoritative answer to a worker poll: the barrier
// position and the full set of slices the worker currently leases.
type pollResponse struct {
	Level  int         `json:"level"`
	Done   bool        `json:"done"`
	Slices []pollSlice `json:"slices"`
}

// idle reports whether the response gives the worker nothing to do: the
// run is not over and every slice it leases has marked the level.
func (r pollResponse) idle() bool {
	if r.Done {
		return false
	}
	for _, ps := range r.Slices {
		if !ps.Expanded {
			return false
		}
	}
	return true
}

// poll is a worker's heartbeat + work request. An answer that would give
// the worker nothing to do is held back: the poll parks until the barrier
// moves, the park interval elapses, or ctx (the request's) is done, and
// then answers afresh. A level therefore closes to every worker in one
// round trip instead of after an idle sleep. A cancelled park answers the
// pre-park response without a second heartbeat: a worker that hung up is
// not renewed.
func (c *Coordinator) poll(ctx context.Context, w string) pollResponse {
	c.mu.Lock()
	resp := c.pollLocked(w, time.Now())
	advanced := c.advanced
	c.mu.Unlock()
	if !resp.idle() {
		return resp
	}
	start := time.Now()
	t := time.NewTimer(c.park())
	defer t.Stop()
	select {
	case <-advanced:
		c.scope.Counter("dist_polls_woken").Add(1)
	case <-t.C:
	case <-ctx.Done():
	}
	c.scope.Histogram("dist_poll_park_us", ExchangeLatencyBoundsMicros).Observe(time.Since(start).Microseconds())
	if ctx.Err() != nil {
		return resp
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.pollLocked(w, time.Now())
}

// pollLocked answers a poll at once: heartbeat, grant, and report the
// barrier position with the worker's leased slices.
func (c *Coordinator) pollLocked(w string, now time.Time) pollResponse {
	c.heartbeatLocked(w, now)
	if !c.done {
		c.grantLocked(w, now)
	}
	resp := pollResponse{Level: c.level, Done: c.done}
	for s := range c.slices {
		if sl := &c.slices[s]; sl.owner == w {
			resp.Slices = append(resp.Slices, pollSlice{
				Slice:     s,
				Epoch:     sl.epoch,
				CkptLevel: sl.ckptLevel,
				HasCkpt:   sl.hasCkpt,
				Expanded:  c.markedLocked(s),
			})
		}
	}
	return resp
}

// heartbeat renews the worker's lease without granting work; workers call
// it from inside long expansions so a big level does not cost them their
// slices.
func (c *Coordinator) heartbeat(w string) {
	now := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.heartbeatLocked(w, now)
}

// errNotOwner is mapped to HTTP 409 by the handler: the poster's lease on
// the slice is gone (a zombie past its stall, a worker racing a
// revocation, or a mark computed under an epoch a revoke+regrant has since
// replaced). The worker drops the slice and rebuilds from the checkpoint on
// its next poll; the rightful owner's posts are the ones that count.
type errNotOwner struct{ slice int }

func (e errNotOwner) Error() string { return fmt.Sprintf("dist: not the owner of slice %d", e.slice) }

// checkOwnerLocked validates w's lease on slice s.
func (c *Coordinator) checkOwnerLocked(w string, s int) error {
	if s < 0 || s >= len(c.slices) {
		return fmt.Errorf("dist: no slice %d", s)
	}
	if c.slices[s].owner != w {
		return errNotOwner{slice: s}
	}
	return nil
}

// getCheckpoint serves a slice's newest checkpoint to its (new) owner.
func (c *Coordinator) getCheckpoint(s int) ([]byte, int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if s < 0 || s >= len(c.slices) || !c.slices[s].hasCkpt {
		return nil, 0, fmt.Errorf("dist: no checkpoint for slice %d", s)
	}
	return c.slices[s].ckpt, c.slices[s].ckptLevel, nil
}

// putChunk verifies and stores one exchange chunk. The bytes are decoded
// on receipt — a torn or corrupted upload is rejected with a typed error
// and never stored, so readers can trust every stored chunk.
func (c *Coordinator) putChunk(w string, body []byte) error {
	h, raw, err := checkpoint.DecodeChunk(body)
	if err != nil {
		c.scope.Counter("dist_chunks_rejected").Add(1)
		return err
	}
	entries, err := DecodeEntries(raw)
	if err != nil {
		c.scope.Counter("dist_chunks_rejected").Add(1)
		return err
	}
	if h.Kind != chunkKind || len(entries) != h.Count {
		c.scope.Counter("dist_chunks_rejected").Add(1)
		return fmt.Errorf("dist: chunk kind %q count %d does not match %d entries", h.Kind, h.Count, len(entries))
	}
	if h.To < 0 || h.To >= len(c.slices) {
		c.scope.Counter("dist_chunks_rejected").Add(1)
		return fmt.Errorf("dist: chunk addressed to slice %d of %d", h.To, len(c.slices))
	}
	now := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	key := chunkKey{level: h.Level, from: h.From, to: h.To}
	if c.recovering {
		// Recovery window: the bytes are already verified, but ownership
		// and the barrier position are unknown until the sweep finishes.
		// Stash the first copy of each chunk and answer idempotently —
		// Recover installs it only if the journal holds no copy (journaled
		// bytes win) and the chunk's level is still open.
		if _, ok := c.pending[key]; !ok {
			c.pending[key] = body
			c.scope.Counter("dist_chunks_pending").Add(1)
		}
		return nil
	}
	c.heartbeatLocked(w, now)
	if h.Level < c.level {
		// Delayed duplicate of a chunk for a closed level; the stored copy
		// (identical bytes) was already ingested. Idempotent — whoever owns
		// the slice now, the level's answer is already folded in.
		return nil
	}
	if h.Level != c.level {
		return fmt.Errorf("dist: chunk for level %d, run is at %d", h.Level, c.level)
	}
	if stored, ok := c.chunks[key]; ok && bytes.Equal(stored, body) {
		// Identical repost — a retry whose original landed, or a redo after
		// reassignment. First write won; idempotent regardless of who owns
		// the slice by now.
		return nil
	}
	if err := c.checkOwnerLocked(w, h.From); err != nil {
		return err
	}
	c.journal.append(journalRec{Tag: jrecChunk, Level: h.Level, From: h.From, To: h.To, Body: body})
	c.applyChunkLocked(key, body, now)
	return nil
}

// applyChunkLocked stores one verified exchange chunk.
func (c *Coordinator) applyChunkLocked(key chunkKey, body []byte, now time.Time) {
	c.chunks[key] = body
	c.scope.Counter("dist_chunks_posted").Add(1)
	c.scope.Counter("dist_chunk_bytes").Add(int64(len(body)))
	if !c.replaying {
		c.scope.Histogram("dist_exchange_us", ExchangeLatencyBoundsMicros).Observe(now.Sub(c.levelStart).Microseconds())
	}
}

// chunkSources lists the from-slices with a stored chunk addressed to
// slice `to` at the level.
func (c *Coordinator) chunkSources(level, to int) []int {
	c.mu.Lock()
	defer c.mu.Unlock()
	var froms []int
	for from := 0; from < len(c.slices); from++ {
		if _, ok := c.chunks[chunkKey{level: level, from: from, to: to}]; ok {
			froms = append(froms, from)
		}
	}
	return froms
}

// getChunk serves one stored chunk. The "dist.chunk.get" fault op, when
// scripted, serves a copy with one byte flipped — the wire-corruption the
// workers' verified decode must catch and retry past.
func (c *Coordinator) getChunk(level, from, to int) ([]byte, error) {
	c.mu.Lock()
	body, ok := c.chunks[chunkKey{level: level, from: from, to: to}]
	c.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("dist: no chunk level %d %d->%d", level, from, to)
	}
	if err := c.faults.Hit("dist.chunk.get"); err != nil {
		mut := make([]byte, len(body))
		copy(mut, body)
		if len(mut) > 0 {
			mut[len(mut)/2] ^= 0x40
		}
		c.scope.Counter("dist_chunks_served_corrupt").Add(1)
		return mut, nil
	}
	return body, nil
}

// mark records slice s's barrier mark for the level: body is its encoded
// SliceCheckpoint for the finished level, computed under the slice epoch
// the worker's poll reported. The checkpoint is validated before it can
// become the slice's recovery point; when the last slice marks, the level
// closes.
func (c *Coordinator) mark(w string, s, level, epoch int, body []byte) error {
	// Validate before locking: a torn upload must never become the
	// recovery point.
	ck, err := DecodeSliceCheckpoint(body)
	if err != nil {
		return err
	}
	if ck.Slice != s || ck.Level != level {
		return fmt.Errorf("dist: checkpoint body is slice %d level %d, request says %d/%d", ck.Slice, ck.Level, s, level)
	}
	if ck.FPVersion != c.spec.FPVersion {
		return fmt.Errorf("dist: checkpoint fingerprints are v%d, run uses v%d", ck.FPVersion, c.spec.FPVersion)
	}
	now := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.heartbeatLocked(w, now)
	if err := c.checkOwnerLocked(w, s); err != nil {
		return err
	}
	if c.slices[s].epoch != epoch {
		// Same owner, but a revoke+regrant happened since the poll this
		// mark was computed under: the worker's state may predate its own
		// regrant, so send it back to the checkpoint.
		return errNotOwner{slice: s}
	}
	if level > c.level {
		return fmt.Errorf("dist: mark for level %d, run is at %d", level, c.level)
	}
	// A delayed duplicate — the client retries on its request timeout
	// while the original may still land — must neither regress the
	// recovery point nor count twice. Same-level posts carry identical
	// stats (a redo is deterministic), so dropping them loses nothing.
	if level < c.level || c.markedLocked(s) {
		return nil
	}
	// Journal before applying: if this mark closes the level, the apply
	// snapshots and rotates the WAL, and the fallback-chain invariant
	// needs the closing record to be the old WAL's last entry.
	rec := journalRec{Tag: jrecMark, Slice: s, Level: level, Steps: ck.Steps, Fresh: ck.Fresh, Digest: ck.Digest, Body: body}
	c.journal.append(rec)
	c.applyMarkLocked(rec)
	return nil
}

// applyMarkLocked stores a slice's mark as its recovery point and closes
// the level if it was the last one outstanding.
func (c *Coordinator) applyMarkLocked(rec journalRec) {
	sl := &c.slices[rec.Slice]
	sl.ckpt = rec.Body
	sl.ckptLevel = rec.Level
	sl.hasCkpt = true
	sl.steps = rec.Steps
	sl.fresh = rec.Fresh
	sl.digest = rec.Digest
	c.scope.Counter("dist_ckpt_bytes").Add(int64(len(rec.Body)))
	c.maybeAdvanceLocked()
}

// maybeAdvanceLocked closes the level once every slice has marked it:
// aggregate the stats, prune chunks older than the retention window (the
// level just closed — the next level ingests it, and a reassigned slice's
// checkpoint is never older than that), and either start the next level
// or finish the run.
func (c *Coordinator) maybeAdvanceLocked() {
	if c.done {
		return
	}
	var fresh, steps int64
	var digest explore.Fingerprint
	for i := range c.slices {
		if !c.markedLocked(i) {
			return
		}
		sl := &c.slices[i]
		fresh += sl.fresh
		steps += sl.steps
		digest[0] ^= sl.digest[0]
		digest[1] ^= sl.digest[1]
	}
	c.steps += steps
	// A level with nothing fresh is the run ending, not a level: the
	// sequential reference records no empty depth, and the witnesses must
	// match byte for byte. Level 0 always holds the root.
	if fresh > 0 {
		c.levels = append(c.levels, LevelStat{Fresh: fresh, Digest: digest})
	}
	c.pruneChunksLocked(c.level)
	c.scope.Event("dist_level_done")
	// The barrier moves either way: release every parked poll. Woken
	// polls answer under c.mu, so they see the state this call leaves.
	close(c.advanced)
	c.advanced = make(chan struct{})
	if fresh == 0 || (c.spec.MaxDepth > 0 && c.level >= c.spec.MaxDepth) {
		c.done = true
		c.witness = RenderWitness(c.spec, c.levels, c.steps)
		// No reassignment can need a chunk now: workers see Done on their
		// next poll and exit without fetching. Free the lot — and keep the
		// final journal snapshot from carrying it.
		c.pruneChunksLocked(maxJournalInt)
		c.scope.Gauge("dist_done").Set(1)
		close(c.doneCh)
		c.snapshotLocked()
		return
	}
	c.level++
	c.levelStart = time.Now()
	c.scope.Gauge("dist_level").Set(int64(c.level))
	c.snapshotLocked()
}

// pruneChunksLocked drops retained exchange chunks for levels below floor.
// The retention window {level-1, level} (floor = level-1) is exactly what
// the current level needs: every slice's run of it, first try or redo
// after a reassignment, ingests the level-1 chunk set.
// Without the prune, chunk memory — and the journal snapshots carrying
// it — would grow with the full explored space instead of the frontier.
func (c *Coordinator) pruneChunksLocked(floor int) {
	pruned := 0
	for key := range c.chunks {
		if key.level < floor {
			delete(c.chunks, key)
			pruned++
		}
	}
	if pruned > 0 {
		c.scope.Counter("dist_chunks_pruned").Add(int64(pruned))
	}
}

// ShardHealth reports per-slice liveness for /progress: the owning worker,
// the run's level, the lease age, and how many times the slice has been
// reassigned. One endpoint diagnoses a stalled distributed run.
func (c *Coordinator) ShardHealth() []obs.ShardHealth {
	now := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]obs.ShardHealth, len(c.slices))
	for s := range c.slices {
		sl := &c.slices[s]
		h := obs.ShardHealth{
			Slice:     s,
			Worker:    sl.owner,
			Level:     c.level,
			Reassigns: sl.reassigns,
		}
		if sl.owner != "" {
			if seen, ok := c.workers[sl.owner]; ok {
				h.LeaseAgeSec = now.Sub(seen).Seconds()
			}
		} else {
			h.LeaseAgeSec = -1
		}
		out[s] = h
	}
	return out
}
