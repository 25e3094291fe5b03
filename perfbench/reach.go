package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"time"

	"repro/internal/dist"
	"repro/internal/explore"
)

// The distributed run uses the spacebound CLI's defaults: 3 fingerprint
// slices, a 2 s lease and the worker's default poll interval (a fifth of
// the lease), with 2 shard workers.
const (
	distSlices  = 3
	distLease   = 2 * time.Second
	distWorkers = 2
)

// reachRunner explores DiskRace with n processes to a depth cap, either in
// one process (dist.SequentialWitness, the pure explore baseline) or with a
// coordinator and shard workers on loopback. Every operation's witness
// must equal, byte for byte, the single-process reference made at set-up.
type reachRunner struct {
	n, depth    int
	distributed bool
	seed        int64
	ref         []byte
	refSec      float64 // time the reference took, for dist.single_over_dist
	// ops numbers the distributed runs, so each gets fresh worker seeds.
	ops int64
}

func newReachRunner(ctx context.Context, n, depth int, distributed bool, seed int64) (*reachRunner, error) {
	r := &reachRunner{n: n, depth: depth, distributed: distributed, seed: seed}
	run, err := r.newRun(1)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	if r.ref, err = dist.SequentialWitness(ctx, run.Spec, run.Root, run.Procs, run.Opts); err != nil {
		return nil, fmt.Errorf("reference witness: %w", err)
	}
	r.refSec = time.Since(t0).Seconds()
	return r, nil
}

func (r *reachRunner) newRun(slices int) (*dist.Run, error) {
	return dist.NewRun(protocol, r.n, slices, r.depth, distLease)
}

func (r *reachRunner) op(ctx context.Context, l layers) error {
	var got []byte
	var err error
	switch {
	case r.distributed:
		got, err = r.distributedRun(ctx, l)
	case l != nil:
		got, err = r.tracedSingle(ctx, l)
	default:
		var run *dist.Run
		if run, err = r.newRun(1); err == nil {
			got, err = dist.SequentialWitness(ctx, run.Spec, run.Root, run.Procs, run.Opts)
		}
	}
	if err != nil {
		return err
	}
	if !bytes.Equal(got, r.ref) {
		return fmt.Errorf("witness differs from the single-process reference:\n%s\nwant:\n%s", got, r.ref)
	}
	return nil
}

// tracedSingle does what dist.SequentialWitness does — explore.Reach with
// a visitor that counts and digests each level, then dist.RenderWitness —
// but calls explore.Reach itself, so the explore layer's time and
// allocations are measured from outside that call. Its witness must equal
// the reference, so it describes the same exploration.
func (r *reachRunner) tracedSingle(ctx context.Context, l layers) ([]byte, error) {
	run, err := r.newRun(1)
	if err != nil {
		return nil, err
	}
	opts := run.Opts
	opts.MaxDepth = r.depth
	fpr := opts.NewFingerprinter()
	var levels []dist.LevelStat
	visit := func(v explore.Visit) bool {
		for len(levels) <= v.Depth {
			levels = append(levels, dist.LevelStat{})
		}
		fp := fpr.Fingerprint(v.Config)
		levels[v.Depth].Fresh++
		levels[v.Depth].Digest[0] ^= fp[0]
		levels[v.Depth].Digest[1] ^= fp[1]
		return true
	}
	before := readGC()
	t0 := time.Now()
	res, err := explore.Reach(ctx, run.Root, run.Procs, opts, visit)
	sec := time.Since(t0).Seconds()
	after := readGC()
	// Reaching the depth cap is the exploration completing as specified.
	if err != nil && !(errors.Is(err, explore.ErrCapped) && res != nil && res.Depth <= r.depth && res.Count < explore.DefaultMaxConfigs) {
		return nil, err
	}
	configs := float64(res.Count)
	l["explore.configs"] = configs
	l["explore.steps"] = float64(res.Steps)
	l["explore.peak_frontier"] = float64(res.PeakFrontier)
	l["explore.wall_s"] = sec
	l["explore.allocs_per_config"] = ratio(float64(after.allocObjects-before.allocObjects), configs)
	l["explore.bytes_per_config"] = ratio(float64(after.allocBytes-before.allocBytes), configs)
	return dist.RenderWitness(run.Spec, levels, int64(res.Steps)), nil
}

// distributedRun hosts a fresh coordinator on a loopback listener, runs
// the shard workers as goroutines until they return, and fetches the
// witness. Its time runs from building the coordinator to the last worker
// exiting.
func (r *reachRunner) distributedRun(ctx context.Context, l layers) ([]byte, error) {
	t0 := time.Now()
	run, err := r.newRun(distSlices)
	if err != nil {
		return nil, err
	}
	coord, err := run.Coordinator(nil)
	if err != nil {
		return nil, err
	}
	meter := &handlerMeter{next: coord.Handler(), status: coord.Status, seen: coord.Status()}
	srv := httptest.NewServer(meter)
	defer srv.Close()

	r.ops++
	errs := make([]error, distWorkers)
	var wg sync.WaitGroup
	for i := range errs {
		w := &dist.Worker{
			ID:    fmt.Sprintf("bench-%d", i),
			URL:   srv.URL,
			Root:  run.Root,
			Procs: run.Procs,
			Opts:  run.Opts,
			Seed:  r.seed*1_000_003 + r.ops*distWorkers + int64(i),
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = w.Run(ctx)
		}(i)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, fmt.Errorf("shard worker: %w", err)
	}
	witness, err := coord.Witness()
	if err != nil {
		return nil, err
	}
	sec := time.Since(t0).Seconds()
	if l != nil {
		status, err := fetchStatus(ctx, srv.URL)
		if err != nil {
			return nil, err
		}
		if !status.Done {
			return nil, fmt.Errorf("dist: workers returned but /dist/status reports %+v", status)
		}
		meter.record(l, status, countConfigs(witness))
		l["dist.single_over_dist"] = ratio(r.refSec, sec)
	}
	return witness, nil
}

func fetchStatus(ctx context.Context, base string) (dist.Status, error) {
	var st dist.Status
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/dist/status", nil)
	if err != nil {
		return st, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("GET /dist/status: %s", resp.Status)
	}
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// countConfigs reads the "total configs" line of a rendered witness.
func countConfigs(witness []byte) float64 {
	var total float64
	for _, line := range strings.Split(string(witness), "\n") {
		if _, err := fmt.Sscanf(line, "total configs: %g", &total); err == nil {
			return total
		}
	}
	return 0
}

// handlerMeter wraps the coordinator's HTTP handler and counts what passes
// through it: requests by kind, bytes each way, time spent serving, and
// the barrier's idle time.
//
// Barrier idle time is measured per phase change. A phase closes on the
// barrier POST after which /dist/status reports another level or phase;
// the idle time of that change is the wait from then until the last
// worker's first poll afterwards, which is when the slowest worker learns
// of the new phase and can start its share of it.
type handlerMeter struct {
	next   http.Handler
	status func() dist.Status

	mu                      sync.Mutex
	seen                    dist.Status // barrier position after the last phase change
	polls, chunks, barriers int
	bytes                   int64
	busy                    time.Duration
	idle                    time.Duration
	closedAt                time.Time
	waiting                 map[string]bool // workers not yet polled since closedAt
	workers                 map[string]bool
	lastWait                time.Duration
}

func (m *handlerMeter) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	arrived := time.Now()
	body, err := io.ReadAll(req.Body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	req.Body = io.NopCloser(bytes.NewReader(body))
	kind := requestKind(req)
	if worker := req.URL.Query().Get("worker"); req.URL.Path == "/dist/poll" && worker != "" {
		m.mu.Lock()
		m.sawPollLocked(worker, arrived)
		m.mu.Unlock()
	}
	cw := &countingWriter{ResponseWriter: w}
	m.next.ServeHTTP(cw, req)
	done := time.Now()

	m.mu.Lock()
	defer m.mu.Unlock()
	switch kind {
	case "poll":
		m.polls++
	case "chunk":
		m.chunks++
	case "barrier":
		m.barriers++
		if st := m.status(); st != m.seen {
			m.seen = st
			m.closePhaseLocked(done)
		}
	}
	m.bytes += int64(len(body)) + cw.n
	m.busy += done.Sub(arrived)
}

// requestKind classifies a coordinator request: lease traffic (poll,
// heartbeat), data exchange (exchange chunks, chunk sets, slice
// checkpoints), barrier marks, or other (spec, status, witness).
func requestKind(req *http.Request) string {
	switch strings.TrimPrefix(req.URL.Path, "/dist/") {
	case "poll", "heartbeat":
		return "poll"
	case "chunk", "chunkset", "checkpoint":
		return "chunk"
	case "expanded", "ingested":
		return "barrier"
	}
	return "other"
}

func (m *handlerMeter) closePhaseLocked(at time.Time) {
	m.idle += m.lastWait
	m.closedAt, m.lastWait = at, 0
	m.waiting = make(map[string]bool, len(m.workers))
	for w := range m.workers {
		m.waiting[w] = true
	}
}

func (m *handlerMeter) sawPollLocked(worker string, at time.Time) {
	if m.workers == nil {
		m.workers = make(map[string]bool)
	}
	m.workers[worker] = true
	if m.waiting[worker] {
		delete(m.waiting, worker)
		m.lastWait = max(m.lastWait, at.Sub(m.closedAt))
	}
}

func (m *handlerMeter) record(l layers, st dist.Status, configs float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	l["dist.poll_requests"] = float64(m.polls)
	l["dist.chunk_requests"] = float64(m.chunks)
	l["dist.barrier_requests"] = float64(m.barriers)
	l["dist.bytes_per_config"] = ratio(float64(m.bytes), configs)
	l["dist.handler_busy_s"] = m.busy.Seconds()
	l["dist.barrier_idle_s"] = (m.idle + m.lastWait).Seconds()
	l["dist.levels"] = float64(st.Level)
}

// countingWriter counts the response body bytes a handler writes.
type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.ResponseWriter.Write(p)
	c.n += int64(n)
	return n, err
}
