package dist

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/explore"
	"repro/internal/faults"
	"repro/internal/model"
	"repro/internal/obs"
)

// testRun wires a coordinator behind a real HTTP server plus the machine
// and options every worker shares.
type testRun struct {
	spec  Spec
	coord *Coordinator
	srv   *httptest.Server
	root  model.Config
	procs []int
	opts  explore.Options

	mu    sync.Mutex
	polls map[string]int // /dist/poll requests served, by worker
}

func newTestRun(t *testing.T, protocol string, n, slices, maxDepth int, leaseMS int64) *testRun {
	t.Helper()
	run, err := NewRun(protocol, n, slices, maxDepth, time.Duration(leaseMS)*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	coord, err := run.Coordinator(nil)
	if err != nil {
		t.Fatal(err)
	}
	tr := &testRun{spec: run.Spec, coord: coord, root: run.Root, procs: run.Procs, opts: run.Opts, polls: make(map[string]int)}
	h := coord.Handler()
	tr.srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/dist/poll" {
			tr.mu.Lock()
			tr.polls[r.URL.Query().Get("worker")]++
			tr.mu.Unlock()
		}
		h.ServeHTTP(w, r)
	}))
	t.Cleanup(tr.srv.Close)
	return tr
}

// pollCount is how many /dist/poll requests the worker has made.
func (tr *testRun) pollCount(worker string) int {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return tr.polls[worker]
}

func (tr *testRun) worker(id string, seed int64, fault *faults.ShardFault) *Worker {
	return &Worker{
		ID:    id,
		URL:   tr.srv.URL,
		Root:  tr.root,
		Procs: tr.procs,
		Opts:  tr.opts,
		Fault: fault,
		Seed:  seed,
	}
}

// runWorkers runs the workers concurrently until the coordinator finishes
// and returns the distributed witness.
func (tr *testRun) runWorkers(t *testing.T, workers ...*Worker) []byte {
	t.Helper()
	return tr.runWorkersAfter(t, nil, workers...)
}

// runWorkersAfter is runWorkers with a start gate: workers[0] starts at
// once, the rest only when ready reports true. A nil ready starts every
// worker at once.
func (tr *testRun) runWorkersAfter(t *testing.T, ready func() bool, workers ...*Worker) []byte {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	var wg sync.WaitGroup
	errs := make([]error, len(workers))
	for i, w := range workers {
		for i == 1 && ready != nil && !ready() && ctx.Err() == nil {
			time.Sleep(time.Millisecond)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = w.Run(ctx)
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("worker %s: %v", workers[i].ID, err)
		}
	}
	select {
	case <-tr.coord.Done():
	default:
		t.Fatal("every worker returned but the run is not done")
	}
	witness, err := tr.coord.Witness()
	if err != nil {
		t.Fatal(err)
	}
	return witness
}

func (tr *testRun) sequential(t *testing.T) []byte {
	t.Helper()
	want, err := SequentialWitness(context.Background(), tr.spec, tr.root, tr.procs, tr.opts)
	if err != nil {
		t.Fatal(err)
	}
	return want
}

// TestDistributedMatchesSequential: three workers produce a witness
// byte-identical to the single-process explore.Reach reference, across
// the barrier's termination edges — a depth cap, an unbounded run that
// ends on a level with nothing fresh, a cap of one level, and more slices
// than the early levels have configurations — and on CoinFlood, whose
// coin-poised processes have two moves each.
func TestDistributedMatchesSequential(t *testing.T) {
	for _, tc := range []struct {
		name                string
		protocol            string
		n, slices, maxDepth int
	}{
		{"n3-depth6", core.ProtocolDiskRace, 3, 3, 6},
		{"n2-unbounded", core.ProtocolDiskRace, 2, 3, 0},
		{"n3-depth1", core.ProtocolDiskRace, 3, 3, 1},
		{"n3-5slices-depth2", core.ProtocolDiskRace, 3, 5, 2},
		{"coinflood-n2-depth30", core.ProtocolCoinFlood, 2, 3, 30},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tr := newTestRun(t, tc.protocol, tc.n, tc.slices, tc.maxDepth, 400)
			got := tr.runWorkers(t,
				tr.worker("w0", 1, nil), tr.worker("w1", 2, nil), tr.worker("w2", 3, nil))
			if want := tr.sequential(t); !bytes.Equal(got, want) {
				t.Fatalf("distributed witness differs from sequential:\n--- distributed\n%s--- sequential\n%s", got, want)
			}
		})
	}
}

// TestNewRunRefusesBadProcessCount: CoinFlood admits only n=2, so a run
// (and with it any coordinator or shard worker) for n=3 is refused with
// an error instead of panicking in the protocol's Init — from a flag and
// from a served spec alike.
func TestNewRunRefusesBadProcessCount(t *testing.T) {
	if _, err := NewRun(core.ProtocolCoinFlood, 3, 3, 0, time.Second); err == nil {
		t.Fatal("NewRun built a coinflood n=3 run")
	}
	spec := Spec{Protocol: core.ProtocolCoinFlood, N: 3, Slices: 3, LeaseMS: 1000, FPVersion: explore.FingerprintVersion}
	if _, err := RunFromSpec(spec); err == nil {
		t.Fatal("RunFromSpec built a coinflood n=3 run")
	}
	if _, err := NewRun(core.ProtocolCoinFlood, 2, 3, 0, time.Second); err != nil {
		t.Fatalf("coinflood n=2: %v", err)
	}
}

// TestSingleWorkerOwnsAllSlices: one worker accumulates every slice over
// successive polls and still matches the reference.
func TestSingleWorkerOwnsAllSlices(t *testing.T) {
	tr := newTestRun(t, core.ProtocolDiskRace, 3, 4, 5, 5000)
	got := tr.runWorkers(t, tr.worker("solo", 7, nil))
	if want := tr.sequential(t); !bytes.Equal(got, want) {
		t.Fatalf("distributed witness differs from sequential:\n--- distributed\n%s--- sequential\n%s", got, want)
	}
	for _, h := range tr.coord.ShardHealth() {
		if h.Worker != "solo" {
			t.Fatalf("slice %d owned by %q at the end", h.Slice, h.Worker)
		}
	}
}

// TestStallRecovery: a worker stalls past its lease mid-run; the survivor
// takes over its slices, rebuilds them from checkpoint + retained chunks,
// and the merged witness is still byte-identical to the reference. The
// reassignment must be visible in shard health.
func TestStallRecovery(t *testing.T) {
	tr := newTestRun(t, core.ProtocolDiskRace, 3, 3, 6, 200)
	stall := &faults.ShardFault{Kind: "stall", Level: 2, Stall: 1200 * time.Millisecond}
	// The sleepy worker joins alone and the steady one only once it holds
	// a lease: started together, the steady worker can lease every slice
	// and finish before the sleepy one has anything to stall.
	sleepyHolds := func() bool {
		for _, h := range tr.coord.ShardHealth() {
			if h.Worker == "sleepy" {
				return true
			}
		}
		return false
	}
	got := tr.runWorkersAfter(t, sleepyHolds, tr.worker("sleepy", 12, stall), tr.worker("steady", 11, nil))
	if want := tr.sequential(t); !bytes.Equal(got, want) {
		t.Fatalf("witness after stall recovery differs:\n--- distributed\n%s--- sequential\n%s", got, want)
	}
	reassigns := 0
	for _, h := range tr.coord.ShardHealth() {
		reassigns += h.Reassigns
	}
	if reassigns == 0 {
		t.Fatal("stall past the lease caused no reassignment")
	}
}

// TestCorruptChunkRetry: the coordinator is scripted to serve corrupted
// bytes for the first chunk GETs. Workers must reject every corrupted copy
// (typed, never ingested) and re-request until a clean copy arrives; the
// witness still matches the reference.
func TestCorruptChunkRetry(t *testing.T) {
	tr := newTestRun(t, core.ProtocolDiskRace, 3, 2, 5, 5000)
	inj := faults.NewOpInjector()
	inj.Fail("dist.chunk.get", 3, nil)
	tr.coord.SetFaults(inj)
	got := tr.runWorkers(t, tr.worker("w0", 21, nil), tr.worker("w1", 22, nil))
	if want := tr.sequential(t); !bytes.Equal(got, want) {
		t.Fatalf("witness after corrupt chunks differs:\n--- distributed\n%s--- sequential\n%s", got, want)
	}
	if inj.Hits("dist.chunk.get") < 3 {
		t.Fatalf("only %d chunk GETs hit the injector", inj.Hits("dist.chunk.get"))
	}
}

// markBody encodes slice s's checkpoint for the level as a mark body.
func markBody(t *testing.T, s, level int, steps, fresh int64) []byte {
	t.Helper()
	ck := SliceCheckpoint{Slice: s, Level: level, FPVersion: explore.FingerprintVersion,
		Visited: []explore.Fingerprint{{uint64(s), uint64(level)}}, Steps: steps, Fresh: fresh}
	body, err := ck.Encode()
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// TestIngestDoneSurvivesPhaseRegression: a healthy worker's mark whose own
// embedded heartbeat lazily expires a dead peer — revoking the peer's
// slice — must be accepted, and the peer's already-posted mark must
// survive the revocation: it carries the peer's checkpoint for the level,
// posted after all its chunks, so nothing about the level needs redoing
// and the level closes on the healthy mark.
func TestIngestDoneSurvivesPhaseRegression(t *testing.T) {
	tr := newTestRun(t, core.ProtocolDiskRace, 3, 2, 3, 60)
	c := tr.coord
	live := c.poll(context.Background(), "live") // grants slice 0
	dead := c.poll(context.Background(), "dead") // grants slice 1
	if err := c.mark("dead", 1, 0, dead.Slices[0].Epoch, markBody(t, 1, 0, 1, 0)); err != nil {
		t.Fatal(err)
	}
	// Let dead's lease lapse, then post live's mark: the heartbeat inside
	// mark() expires dead and revokes its slice before the mark applies.
	time.Sleep(100 * time.Millisecond)
	if err := c.mark("live", 0, 0, live.Slices[0].Epoch, markBody(t, 0, 0, 2, 1)); err != nil {
		t.Fatalf("healthy worker's mark rejected after a peer's revocation: %v", err)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.slices[1].owner != "" {
		t.Fatal("dead worker's slice was not revoked — the revocation never happened")
	}
	if sl := c.slices[1]; !sl.hasCkpt || sl.ckptLevel != 0 {
		t.Fatalf("revocation dropped the dead worker's mark: has %v level %d", sl.hasCkpt, sl.ckptLevel)
	}
	if c.level != 1 || len(c.levels) != 1 || c.steps != 3 {
		t.Fatalf("level did not close on the healthy mark: level %d, %d levels, %d steps", c.level, len(c.levels), c.steps)
	}
}

// TestStaleIngestDoneAfterRegrant: a mark computed before its slice was
// revoked and regranted to the same worker (epoch bumped) gets 409 — the
// client maps it to ErrLeaseLost, so the worker drops the slice and
// rebuilds from the checkpoint instead of exiting. The same mark under the
// new epoch is accepted.
func TestStaleIngestDoneAfterRegrant(t *testing.T) {
	tr := newTestRun(t, core.ProtocolDiskRace, 3, 1, 3, 5000)
	ctx := context.Background()
	cl := newClient(tr.srv.URL, "w", 1)
	before, err := cl.poll(ctx)
	if err != nil {
		t.Fatal(err)
	}
	tr.coord.mu.Lock()
	tr.coord.slices[0].owner = ""
	tr.coord.mu.Unlock()
	// Regrant to the same worker: same owner, new epoch.
	after, err := cl.poll(ctx)
	if err != nil {
		t.Fatal(err)
	}
	body := markBody(t, 0, 0, 1, 1)
	err = cl.postMark(ctx, 0, 0, before.Slices[0].Epoch, body)
	if !errors.Is(err, ErrLeaseLost) {
		t.Fatalf("stale mark after regrant returned %v, want ErrLeaseLost", err)
	}
	if err := cl.postMark(ctx, 0, 0, after.Slices[0].Epoch, body); err != nil {
		t.Fatalf("mark under the current epoch rejected: %v", err)
	}
}

// TestCheckpointLevelMonotonic: a delayed duplicate mark for an older
// level must not regress the stored recovery point — the newest checkpoint
// wins, and the stale post is acknowledged as a no-op.
func TestCheckpointLevelMonotonic(t *testing.T) {
	tr := newTestRun(t, core.ProtocolDiskRace, 3, 1, 3, 5000)
	c := tr.coord
	epoch := c.poll(context.Background(), "w").Slices[0].Epoch
	for level := 0; level <= 1; level++ {
		if err := c.mark("w", 0, level, epoch, markBody(t, 0, level, 1, 1)); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.mark("w", 0, 0, epoch, markBody(t, 0, 0, 1, 1)); err != nil {
		t.Fatalf("delayed duplicate mark rejected instead of ignored: %v", err)
	}
	body, level, err := c.getCheckpoint(0)
	if err != nil {
		t.Fatal(err)
	}
	if level != 1 || !bytes.Equal(body, markBody(t, 0, 1, 1, 1)) {
		t.Fatalf("stored checkpoint regressed to level %d", level)
	}
	if st := c.Status(); st.Level != 2 || c.steps != 2 {
		t.Fatalf("duplicate mark counted again: %+v, %d steps", st, c.steps)
	}
}

// TestMarkRejectsNegativeCounts: a mark whose checkpoint declares negative
// steps or fresh counts is a bad request, never stored or counted.
func TestMarkRejectsNegativeCounts(t *testing.T) {
	tr := newTestRun(t, core.ProtocolDiskRace, 3, 1, 3, 5000)
	ctx := context.Background()
	cl := newClient(tr.srv.URL, "w", 1)
	resp, err := cl.poll(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, counts := range [][2]int64{{-1000, 1}, {1, -1}} {
		err := cl.postMark(ctx, 0, 0, resp.Slices[0].Epoch, markBody(t, 0, 0, counts[0], counts[1]))
		var term errTerminal
		if !errors.As(err, &term) || !strings.Contains(err.Error(), "400") {
			t.Fatalf("mark with steps %d fresh %d: %v, want 400", counts[0], counts[1], err)
		}
	}
	if _, _, err := tr.coord.getCheckpoint(0); err == nil {
		t.Fatal("a rejected mark became the recovery point")
	}
}

// TestChunkToOutOfRangeRejected: a chunk addressed to a slice the run does
// not have is a bad request, never stored or journaled — no slice would
// ever ingest it.
func TestChunkToOutOfRangeRejected(t *testing.T) {
	tr := newTestRun(t, core.ProtocolDiskRace, 3, 3, 3, 5000)
	ctx := context.Background()
	cl := newClient(tr.srv.URL, "w", 1)
	if _, err := cl.poll(ctx); err != nil { // grants slice 0
		t.Fatal(err)
	}
	entries := []Entry{{FP: explore.Fingerprint{1, 2}, Path: []uint32{0}}}
	for _, to := range []int{-1, 3, 1 << 20} {
		body, err := EncodeFrontierChunk(0, 0, to, entries)
		if err != nil {
			t.Fatal(err)
		}
		err = cl.putChunk(ctx, body)
		var term errTerminal
		if !errors.As(err, &term) || !strings.Contains(err.Error(), "400") {
			t.Fatalf("chunk to slice %d: %v, want 400", to, err)
		}
	}
	tr.coord.mu.Lock()
	defer tr.coord.mu.Unlock()
	if len(tr.coord.chunks) != 0 {
		t.Fatalf("out-of-range chunks stored: %v", tr.coord.chunks)
	}
}

// TestPostFromNonOwnerRejected: a zombie worker whose lease was revoked
// gets 409 on its posts and ErrLeaseLost from the client.
func TestPostFromNonOwnerRejected(t *testing.T) {
	tr := newTestRun(t, core.ProtocolDiskRace, 3, 1, 3, 50)
	ctx := context.Background()
	zombie := newClient(tr.srv.URL, "zombie", 1)
	resp, err := zombie.poll(ctx)
	if err != nil {
		t.Fatal(err)
	}
	// Let the lease lapse, then have another worker steal the slice.
	time.Sleep(120 * time.Millisecond)
	thief := newClient(tr.srv.URL, "thief", 2)
	if _, err := thief.poll(ctx); err != nil {
		t.Fatal(err)
	}
	err = zombie.postMark(ctx, 0, 0, resp.Slices[0].Epoch, markBody(t, 0, 0, 1, 1))
	if err == nil {
		t.Fatal("zombie post accepted")
	}
	if !errors.Is(err, ErrLeaseLost) {
		t.Fatalf("zombie post failed with %v, want ErrLeaseLost", err)
	}
}

// parkRun is a two-slice run for the parked-poll tests: worker "a" owns
// slice 0 and has marked level 0 with nothing fresh, worker "b" owns slice
// 1 and has not marked. The
// coordinator records into a live scope so the park metrics can be read.
func parkRun(t *testing.T, leaseMS int64) (*testRun, *client) {
	t.Helper()
	tr := newTestRun(t, core.ProtocolDiskRace, 3, 2, 3, leaseMS)
	tr.coord.scope = obs.NewScope(nil)
	ctx := context.Background()
	a := newClient(tr.srv.URL, "a", 1)
	resp, err := a.poll(ctx) // grants slice 0
	if err != nil {
		t.Fatal(err)
	}
	tr.coord.poll(ctx, "b") // grants slice 1
	if err := a.postMark(ctx, 0, 0, resp.Slices[0].Epoch, markBody(t, 0, 0, 1, 0)); err != nil {
		t.Fatal(err)
	}
	return tr, a
}

// markB posts worker b's level-0 mark for slice 1, closing level 0 (or,
// with fresh 0, ending the run).
func markB(t *testing.T, tr *testRun, fresh int64) {
	t.Helper()
	epoch := tr.coord.poll(context.Background(), "b").Slices[0].Epoch
	if err := tr.coord.mark("b", 1, 0, epoch, markBody(t, 1, 0, 1, fresh)); err != nil {
		t.Fatal(err)
	}
}

// asyncPoll runs a's poll on its own goroutine.
func asyncPoll(t *testing.T, a *client) <-chan pollResponse {
	out := make(chan pollResponse, 1)
	go func() {
		resp, err := a.poll(context.Background())
		if err != nil {
			t.Errorf("poll: %v", err)
		}
		out <- resp
	}()
	return out
}

// TestParkedPollWakesOnLevelClose: a worker whose slices have all marked
// the level parks in its poll, and the last slice's mark releases it with
// the new level at once — not a park interval later.
func TestParkedPollWakesOnLevelClose(t *testing.T) {
	tr, a := parkRun(t, 2000) // park: 400ms
	out := asyncPoll(t, a)
	time.Sleep(50 * time.Millisecond) // let a's poll park
	closed := time.Now()
	markB(t, tr, 1)
	resp := <-out
	if waited := time.Since(closed); waited > 100*time.Millisecond {
		t.Fatalf("parked poll returned %v after the level closed", waited)
	}
	if resp.Level != 1 || len(resp.Slices) != 1 || resp.Slices[0].Expanded {
		t.Fatalf("woken poll answered %+v, want level 1 with slice 0 to run", resp)
	}
	reg := tr.coord.scope.Registry()
	if n := reg.Counter("dist_polls_woken").Value(); n != 1 {
		t.Fatalf("dist_polls_woken = %d, want 1", n)
	}
	if n := reg.Histogram("dist_poll_park_us", ExchangeLatencyBoundsMicros).Count(); n != 1 {
		t.Fatalf("dist_poll_park_us has %d samples, want 1", n)
	}
	var prom bytes.Buffer
	if err := reg.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"dist_polls_woken", "dist_poll_park_us"} {
		if !strings.Contains(prom.String(), name) {
			t.Fatalf("/metrics lacks %s:\n%s", name, prom.String())
		}
	}
}

// TestParkedPollTimesOut: with no barrier movement a parked poll answers
// after the park interval, a fifth of the lease, at the same level — and
// the worker's lease survives the park.
func TestParkedPollTimesOut(t *testing.T) {
	tr, a := parkRun(t, 500) // park: 100ms
	start := time.Now()
	resp := <-asyncPoll(t, a)
	waited := time.Since(start)
	if park := tr.coord.park(); waited < park || waited > park+300*time.Millisecond {
		t.Fatalf("parked poll returned after %v, want about %v", waited, park)
	}
	if resp.Level != 0 || len(resp.Slices) != 1 || !resp.Slices[0].Expanded {
		t.Fatalf("timed-out poll answered %+v, want level 0 with slice 0 marked", resp)
	}
	if h := tr.coord.ShardHealth()[0]; h.Worker != "a" {
		t.Fatalf("slice 0 owned by %q after the park, want a", h.Worker)
	}
	if n := tr.coord.scope.Registry().Counter("dist_polls_woken").Value(); n != 0 {
		t.Fatalf("dist_polls_woken = %d after a timeout", n)
	}
}

// TestParkedPollReleasedOnDoneAndCancel: the run ending releases a parked
// poll with Done, and a cancelled request context releases it without
// renewing the lease of the worker that hung up.
func TestParkedPollReleasedOnDoneAndCancel(t *testing.T) {
	t.Run("done", func(t *testing.T) {
		tr, a := parkRun(t, 2000)
		out := asyncPoll(t, a)
		time.Sleep(50 * time.Millisecond)
		ended := time.Now()
		markB(t, tr, 0) // nothing fresh anywhere: the run ends
		resp := <-out
		if waited := time.Since(ended); waited > 100*time.Millisecond {
			t.Fatalf("parked poll returned %v after the run ended", waited)
		}
		if !resp.Done {
			t.Fatalf("released poll answered %+v, want Done", resp)
		}
	})
	t.Run("cancel", func(t *testing.T) {
		tr, _ := parkRun(t, 2000)
		c := tr.coord
		ctx, cancel := context.WithCancel(context.Background())
		out := make(chan pollResponse, 1)
		go func() { out <- c.poll(ctx, "a") }()
		time.Sleep(50 * time.Millisecond)
		c.mu.Lock()
		seen := c.workers["a"]
		c.mu.Unlock()
		cancelled := time.Now()
		cancel()
		resp := <-out
		if waited := time.Since(cancelled); waited > 100*time.Millisecond {
			t.Fatalf("parked poll returned %v after its context was cancelled", waited)
		}
		if resp.Done || resp.Level != 0 {
			t.Fatalf("cancelled poll answered %+v", resp)
		}
		c.mu.Lock()
		defer c.mu.Unlock()
		if !c.workers["a"].Equal(seen) {
			t.Fatal("a cancelled park renewed the lease of the worker that hung up")
		}
	})
}

// TestParkStaysBelowClientTimeout: under a 10-minute lease the park is
// capped at half the worker client's request timeout, so the poll answers
// in time instead of timing out into retries, and the worker keeps its
// lease. The cap and the timeout are scaled down together to run fast.
func TestParkStaysBelowClientTimeout(t *testing.T) {
	tr, a := parkRun(t, 10*60*1000)
	if got := tr.coord.park(); got != maxPark || maxPark >= clientTimeout {
		t.Fatalf("park under a 10-minute lease is %v (cap %v), client timeout %v", got, maxPark, clientTimeout)
	}
	tr.coord.parkCap = 150 * time.Millisecond
	a.http.Timeout = 2 * tr.coord.parkCap
	start := time.Now()
	resp, err := a.poll(context.Background())
	if err != nil {
		t.Fatalf("parked poll failed: %v", err)
	}
	if waited := time.Since(start); waited >= a.http.Timeout {
		t.Fatalf("parked poll took %v, client timeout %v", waited, a.http.Timeout)
	}
	if n := tr.pollCount("a"); n != 2 {
		t.Fatalf("%d polls from a, want 2: the park was retried", n)
	}
	if len(resp.Slices) != 1 || tr.coord.ShardHealth()[0].Worker != "a" {
		t.Fatalf("worker lost its lease across the park: %+v", resp)
	}
}

// TestIdleWorkerDoesNotSpin: a worker with no slice has nothing to do for
// the whole run, and without a sleep of its own it must still not spin —
// each poll parks until a level closes or the park interval elapses, so it
// makes at most one poll per level close plus one per park interval.
func TestIdleWorkerDoesNotSpin(t *testing.T) {
	tr := newTestRun(t, core.ProtocolDiskRace, 3, 1, 6, 2000)
	// The holder stalls half a lease at level 2 — short of losing its
	// slice — so the idle worker also sits through park timeouts.
	stall := &faults.ShardFault{Kind: "stall", Level: 2, Stall: time.Second}
	holds := func() bool { return tr.coord.ShardHealth()[0].Worker == "holder" }
	start := time.Now()
	got := tr.runWorkersAfter(t, holds, tr.worker("holder", 1, stall), tr.worker("idle", 2, nil))
	elapsed := time.Since(start)
	if want := tr.sequential(t); !bytes.Equal(got, want) {
		t.Fatalf("witness differs:\n--- distributed\n%s--- sequential\n%s", got, want)
	}
	if h := tr.coord.ShardHealth()[0]; h.Worker != "holder" || h.Reassigns != 0 {
		t.Fatalf("the slice moved: %+v", h)
	}
	levels := tr.coord.Status().Level
	limit := int(elapsed/tr.coord.park()) + levels + 2
	if n := tr.pollCount("idle"); n < 2 || n > limit {
		t.Fatalf("idle worker polled %d times in %v over %d levels, want 2..%d", n, elapsed, levels, limit)
	}
}
