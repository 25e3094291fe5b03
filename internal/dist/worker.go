package dist

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"time"

	"repro/internal/explore"
	"repro/internal/faults"
	"repro/internal/model"
	"repro/internal/obs"
)

// Worker is one shard-worker process (or goroutine, in tests). It polls
// the coordinator for slice leases and drives every slice it holds through
// the per-level protocol: ingest, expand, mark. It never sleeps between
// polls: a poll with nothing to hand out parks in the coordinator until
// the level closes, so the poll is also the barrier wait. All state is
// private to the single Run goroutine — the visited sets and one packed
// transition engine (explore's codec and memoising stepper), shared by
// every slice the worker holds. Crash tolerance comes from the
// coordinator's checkpoints and retained chunks, not from anything the
// worker persists locally.
type Worker struct {
	ID    string
	URL   string // coordinator base URL, e.g. http://127.0.0.1:9131
	Root  model.Config
	Procs []int
	Opts  explore.Options
	// Fault, when non-nil, is a scripted crash or stall (internal/faults)
	// fired at its level during expansion — the chaos the e2e tests use.
	Fault *faults.ShardFault
	Scope *obs.Scope
	Seed  int64
}

// sliceState is the worker's in-memory state for one leased slice: the
// visited set as of the newest level the slice finished, kept sorted so
// the level's mark encodes it without a sort. The frontier lives only
// inside a level's run — it is rebuilt from the previous level's chunks
// every time.
type sliceState struct {
	epoch   int
	level   int // newest level finished (checkpointed), -1 before level 0
	visited []explore.Fingerprint
}

// seen reports whether fp is in the slice's visited set.
func (st *sliceState) seen(fp explore.Fingerprint) bool {
	_, found := slices.BinarySearchFunc(st.visited, fp, compareFingerprints)
	return found
}

// addFresh merges the level's fresh fingerprints — none of them visited
// yet, and sorted here — into the visited set.
func (st *sliceState) addFresh(fresh []explore.Fingerprint) {
	slices.SortFunc(fresh, compareFingerprints)
	n := len(st.visited)
	st.visited = slices.Grow(st.visited, len(fresh))[:n+len(fresh)]
	i, j := n-1, len(fresh)-1
	for k := len(st.visited) - 1; j >= 0; k-- {
		if i >= 0 && compareFingerprints(st.visited[i], fresh[j]) > 0 {
			st.visited[k] = st.visited[i]
			i--
		} else {
			st.visited[k] = fresh[j]
			j--
		}
	}
}

// Run drives the worker until the run completes, the context is
// cancelled, or an unrecoverable error occurs. Losing a lease is not an
// error — the slice is dropped and whatever the coordinator still trusts
// this worker with continues.
func (w *Worker) Run(ctx context.Context) error {
	cl := newClient(w.URL, w.ID, w.Seed)
	spec, err := cl.getSpec(ctx)
	if err != nil {
		return err
	}
	if spec.FPVersion != explore.FingerprintVersion {
		return fmt.Errorf("dist: coordinator run uses fingerprint v%d, this binary has v%d", spec.FPVersion, explore.FingerprintVersion)
	}
	if spec.Slices < 1 {
		return fmt.Errorf("dist: spec has %d slices", spec.Slices)
	}
	x, err := newExpander(w.Root, w.Procs, w.Opts)
	if err != nil {
		return err
	}
	rootFP := x.fpr.Fingerprint(w.Root)
	states := make(map[int]*sliceState)
	var faultFired bool
	for {
		resp, err := cl.poll(ctx)
		if err != nil {
			return err
		}
		if resp.Done {
			return nil
		}
		// Reconcile leases against the poll's authoritative list: drop
		// slices we no longer hold, adopt new grants (and regrants whose
		// epoch moved — our memory of those is untrustworthy).
		owned := make(map[int]pollSlice, len(resp.Slices))
		ids := make([]int, 0, len(resp.Slices))
		for _, ps := range resp.Slices {
			owned[ps.Slice] = ps
			ids = append(ids, ps.Slice)
		}
		sort.Ints(ids)
		for s := range states {
			if _, ok := owned[s]; !ok {
				delete(states, s)
			}
		}
		for _, s := range ids {
			ps := owned[s]
			if ps.Expanded {
				continue // marked; nothing to do until the level closes
			}
			st, ok := states[s]
			var err error
			if !ok || st.epoch != ps.Epoch {
				st, err = w.adopt(ctx, cl, spec, s, ps)
			}
			if err == nil {
				states[s] = st
				err = w.runLevel(ctx, cl, spec, x, rootFP, s, st, resp.Level, &faultFired)
			}
			if errors.Is(err, ErrLeaseLost) {
				delete(states, s)
				w.Scope.Event("dist_worker_lease_lost")
				continue
			}
			if err != nil {
				return err
			}
		}
	}
}

// adopt builds the local state for a freshly granted (or epoch-bumped)
// slice that has not marked the run's current level: load its newest
// checkpoint — the previous level's, which runLevel checks — or, with
// none yet, start before level 0.
func (w *Worker) adopt(ctx context.Context, cl *client, spec Spec, s int, ps pollSlice) (*sliceState, error) {
	st := &sliceState{epoch: ps.Epoch, level: -1}
	if ps.HasCkpt {
		ck, err := cl.getCheckpoint(ctx, s)
		if err != nil {
			return nil, err
		}
		if ck.Slice != s || ck.FPVersion != spec.FPVersion {
			return nil, fmt.Errorf("dist: checkpoint for slice %d is slice %d v%d", s, ck.Slice, ck.FPVersion)
		}
		// Encode writes the visited set sorted; sort anyway rather than
		// trust the bytes, since membership is a binary search.
		st.visited = ck.Visited
		if !slices.IsSortedFunc(st.visited, compareFingerprints) {
			slices.SortFunc(st.visited, compareFingerprints)
		}
		st.level = ck.Level
	}
	w.Scope.Event("dist_worker_adopted")
	return st, nil
}

// runLevel runs slice s through the level: ingest the previous level's
// chunks addressed to it (at level 0, seed the root instead), expand the
// fresh configurations on the worker's packed engine (expander.expandLevel:
// memoised path replay, packed stepping, a raw-record pre-filter), ship
// the children bucketed by destination slice as verified chunks, and post
// the slice's checkpoint for the level as its barrier mark. The level at
// the depth cap is ingested but never expanded.
func (w *Worker) runLevel(ctx context.Context, cl *client, spec Spec, x *expander, rootFP explore.Fingerprint, s int, st *sliceState, level int, faultFired *bool) error {
	if st.level != level-1 {
		return fmt.Errorf("dist: slice %d at level %d while run is at %d", s, st.level, level)
	}
	var frontier []Entry
	var fresh int64
	var digest explore.Fingerprint
	if level == 0 {
		if explore.ShardOf(rootFP, spec.Slices) == s {
			st.addFresh([]explore.Fingerprint{rootFP})
			frontier = []Entry{{FP: rootFP}}
			fresh, digest = 1, rootFP
		}
	} else {
		var err error
		if frontier, fresh, digest, err = w.ingestChunks(ctx, cl, s, st, level-1); err != nil {
			return err
		}
	}
	if w.Fault != nil && w.Fault.Kind == "stall" && w.Fault.At(level) && !*faultFired {
		*faultFired = true
		w.Fault.Trigger()
	}
	var steps int64
	if spec.MaxDepth == 0 || level < spec.MaxDepth {
		heartbeatEvery := time.Duration(spec.LeaseMS) * time.Millisecond / 5
		lastBeat := time.Now()
		// A big level must not cost us the lease mid-expansion.
		beat := func() error {
			if time.Since(lastBeat) <= heartbeatEvery {
				return nil
			}
			lastBeat = time.Now()
			return cl.heartbeat(ctx)
		}
		outgoing, n, err := x.expandLevel(frontier, spec.Slices, beat)
		if err != nil {
			return err
		}
		steps = n
		posted := 0
		for d, entries := range outgoing {
			if len(entries) == 0 {
				continue
			}
			body, err := EncodeFrontierChunk(level, s, d, entries)
			if err != nil {
				return err
			}
			if err := cl.putChunk(ctx, body); err != nil {
				return err
			}
			posted++
			// A scripted kill fires after the first chunk lands: the torn
			// middle of an exchange, the worst moment to die.
			if posted == 1 && w.Fault != nil && w.Fault.Kind == "kill" && w.Fault.At(level) && !*faultFired {
				*faultFired = true
				w.Fault.Trigger()
			}
		}
	}
	ck := SliceCheckpoint{Slice: s, Level: level, FPVersion: spec.FPVersion, Visited: st.visited, Steps: steps, Fresh: fresh, Digest: digest}
	body, err := ck.Encode()
	if err != nil {
		return err
	}
	if err := cl.postMark(ctx, s, level, st.epoch, body); err != nil {
		return err
	}
	st.level = level
	return nil
}

// ingestChunks fetches and ingests every retained chunk addressed to slice s at
// the level, in from-slice order (ascending — the order is part of the
// frontier's byte determinism), deduplicating against the slice's visited
// set and within the level, then merges the fresh fingerprints into the
// visited set. Returns the fresh entries in ingest order with their count
// and XOR digest.
func (w *Worker) ingestChunks(ctx context.Context, cl *client, s int, st *sliceState, level int) ([]Entry, int64, explore.Fingerprint, error) {
	froms, err := cl.chunkSources(ctx, level, s)
	if err != nil {
		return nil, 0, explore.Fingerprint{}, err
	}
	sort.Ints(froms)
	retries := w.Scope.Counter("dist_chunk_retries")
	accepted := make(map[explore.Fingerprint]struct{})
	var next []Entry
	var fresh []explore.Fingerprint
	var digest explore.Fingerprint
	for _, from := range froms {
		entries, err := cl.getChunk(ctx, level, from, s, func() { retries.Add(1) })
		if err != nil {
			return nil, 0, explore.Fingerprint{}, err
		}
		for _, e := range entries {
			if _, dup := accepted[e.FP]; dup || st.seen(e.FP) {
				continue
			}
			accepted[e.FP] = struct{}{}
			fresh = append(fresh, e.FP)
			next = append(next, e)
			digest[0] ^= e.FP[0]
			digest[1] ^= e.FP[1]
		}
	}
	st.addFresh(fresh)
	return next, int64(len(next)), digest, nil
}
