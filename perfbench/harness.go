package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"syscall"
	"time"
)

// setupRepeats is how many times a workload's set-up runs; setup_s is the
// median, so one slow repetition (a cold page cache, a first GC) does not
// move it.
const setupRepeats = 5

// runner is a workload after set-up: op runs one checked operation. With a
// non-nil layers it also records the per-layer metrics of that operation.
// An error is a failed operation: the program erred or its output did not
// pass the workload's checks.
type runner interface {
	op(ctx context.Context, l layers) error
}

// layers holds one traced operation's per-layer metrics by name; nil for
// an untraced operation.
type layers map[string]float64

// result is one run of a workload, before it is printed.
type result struct {
	attempted, failed int
	setup             []float64 // seconds per set-up repetition
	untraced          []float64 // seconds per untraced operation
	traced            []float64 // seconds per traced operation
	perOp             []layers
	peakRSSMB         float64
	// unstable lists the exact counts that differed between two traced
	// operations of the run.
	unstable []string
}

// runWorkload sets the workload up setupRepeats times, then runs its
// operations in a closed loop for the given duration: each starts when the
// previous one has finished. Traced runs alternate an untraced and a
// traced operation, so trace.overhead_frac compares the two under the same
// conditions, and run at least one of each.
func runWorkload(ctx context.Context, newRunner func(context.Context) (runner, error), d time.Duration, traced bool) (*result, error) {
	res := &result{}
	var r runner
	for i := 0; i < setupRepeats; i++ {
		t0 := time.Now()
		var err error
		if r, err = newRunner(ctx); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		res.setup = append(res.setup, time.Since(t0).Seconds())
	}
	minOps := 1
	if traced {
		minOps = 2
	}
	start := time.Now()
	for res.attempted < minOps || time.Since(start) < d {
		if ctx.Err() != nil {
			break
		}
		var l layers
		if traced && res.attempted%2 == 1 {
			l = layers{}
		}
		var before gcSample
		if l != nil {
			before = readGC()
		}
		t0 := time.Now()
		err := r.op(ctx, l)
		sec := time.Since(t0).Seconds()
		res.attempted++
		if err != nil {
			res.failed++
			fmt.Fprintf(os.Stderr, "perfbench: operation %d failed: %v\n", res.attempted, err)
		}
		if l == nil {
			res.untraced = append(res.untraced, sec)
			continue
		}
		readGC().since(before, l)
		res.traced = append(res.traced, sec)
		res.perOp = append(res.perOp, l)
	}
	res.unstable = unstableCounts(res.perOp)
	res.peakRSSMB = peakRSSMB()
	return res, nil
}

// exactCounts are the per-layer metrics that count work: a deterministic
// program reports each of them identically on every operation.
var exactCounts = []string{
	"adversary.rounds",
	"valency.queries", "valency.solo_queries", "valency.configs", "valency.deepest_level",
	"explore.configs", "explore.steps", "explore.peak_frontier",
	"dist.levels",
}

func unstableCounts(perOp []layers) []string {
	var out []string
	for _, name := range exactCounts {
		for _, m := range perOp[min(1, len(perOp)):] {
			if m[name] != perOp[0][name] {
				out = append(out, name)
				break
			}
		}
	}
	return out
}

// median of xs; 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// layerMedians folds the traced operations' metrics into one value per
// name: the median across operations, 0 for a layer the workload does not
// use.
func layerMedians(names []string, perOp []layers) map[string]float64 {
	out := make(map[string]float64, len(names))
	for _, name := range names {
		xs := make([]float64, 0, len(perOp))
		for _, m := range perOp {
			xs = append(xs, m[name])
		}
		out[name] = median(xs)
	}
	return out
}

// ratio is a/b, or 0 when b is 0 (a layer with no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// gcSample is a reading of the Go runtime's GC and allocation counters.
type gcSample struct {
	gcCPU, totalCPU    float64
	cycles, allocBytes uint64
	allocObjects       uint64
}

var gcMetricNames = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/cycles/total:gc-cycles",
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
}

func readGC() gcSample {
	ss := make([]metrics.Sample, len(gcMetricNames))
	for i, name := range gcMetricNames {
		ss[i].Name = name
	}
	metrics.Read(ss)
	f := func(i int) float64 {
		if ss[i].Value.Kind() != metrics.KindFloat64 {
			return 0
		}
		return ss[i].Value.Float64()
	}
	u := func(i int) uint64 {
		if ss[i].Value.Kind() != metrics.KindUint64 {
			return 0
		}
		return ss[i].Value.Uint64()
	}
	return gcSample{
		gcCPU: f(0), totalCPU: f(1),
		cycles: u(2), allocBytes: u(3), allocObjects: u(4),
	}
}

// since records the runtime layer's share of an operation: the GC's share
// of all CPU time the process spent, GC cycles and bytes allocated.
func (s gcSample) since(before gcSample, l layers) {
	l["runtime.gc_cpu_share"] = ratio(s.gcCPU-before.gcCPU, s.totalCPU-before.totalCPU)
	l["runtime.gc_cycles"] = float64(s.cycles - before.cycles)
	l["runtime.alloc_bytes"] = float64(s.allocBytes - before.allocBytes)
}

// peakRSSMB is the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// hostFacts describes the machine a result was measured on.
func hostFacts() map[string]any {
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"cpu":        cpuModel(),
	}
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
