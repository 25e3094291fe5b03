// Command perfbench is the repository's benchmark. It runs one workload
// of the Theorem 1 adversary or of the reachability engines in a closed
// loop for a fixed time, checks every result, and prints the end-to-end
// metrics (or, with --trace 1, the per-layer metrics) as the last line of
// standard output:
//
//	go run . --workload theorem1-n4 --seed 1 --seconds 20 --trace 0
//
// METRICS.md lists the workloads and metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"
)

// sizes are the problem sizes of the four workloads.
type sizes struct {
	proofN, coverN, reachN, reachDepth int
	// proofWarmN and coverWarmN size the warm-up operation of set-up.
	proofWarmN, coverWarmN int
}

// fullSizes are the benchmark's; smokeSizes keep the harness test quick.
var (
	fullSizes  = sizes{proofN: 4, coverN: 5, reachN: 4, reachDepth: 18, proofWarmN: 3, coverWarmN: 4}
	smokeSizes = sizes{proofN: 3, coverN: 4, reachN: 4, reachDepth: 6, proofWarmN: 3, coverWarmN: 3}
)

var workloadNames = []string{"theorem1-n4", "covering-n5", "reach-n4-single", "reach-n4-dist"}

// newRunner returns the set-up function of the named workload.
func newRunner(name string, sz sizes, seed int64) (func(context.Context) (runner, error), error) {
	switch name {
	case "theorem1-n4":
		return func(ctx context.Context) (runner, error) {
			return newProofRunner(ctx, sz.proofN, sz.proofWarmN, true)
		}, nil
	case "covering-n5":
		return func(ctx context.Context) (runner, error) {
			return newProofRunner(ctx, sz.coverN, sz.coverWarmN, false)
		}, nil
	case "reach-n4-single", "reach-n4-dist":
		distributed := name == "reach-n4-dist"
		return func(ctx context.Context) (runner, error) {
			return newReachRunner(ctx, sz.reachN, sz.reachDepth, distributed, seed)
		}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

// perLayer names every per-layer metric, in output order.
var perLayer = []string{
	"adversary.initial_s", "adversary.lemma4_s", "adversary.lemma3_s", "adversary.lemma2_s", "adversary.rounds",
	"valency.queries", "valency.memo_hit_ratio", "valency.solo_queries", "valency.solo_hit_ratio",
	"valency.configs", "valency.deepest_level", "valency.configs_per_s",
	"explore.configs", "explore.steps", "explore.dedup_ratio", "explore.peak_frontier",
	"explore.configs_per_s", "explore.allocs_per_config", "explore.bytes_per_config",
	"check.verify_s",
	"dist.poll_requests", "dist.chunk_requests", "dist.barrier_requests", "dist.bytes_per_config",
	"dist.handler_busy_s", "dist.levels", "dist.barrier_idle_s", "dist.single_over_dist",
	"runtime.gc_cpu_share", "runtime.gc_cycles", "runtime.alloc_bytes",
	"trace.overhead_frac",
}

// derive fills one traced operation's ratio metrics from its counts.
func derive(m layers) {
	m["valency.memo_hit_ratio"] = ratio(m["valency.hits"], m["valency.queries"])
	m["valency.solo_hit_ratio"] = ratio(m["valency.solo_hits"], m["valency.solo_queries"])
	m["valency.configs_per_s"] = ratio(m["valency.configs"], m["valency.oracle_s"])
	m["explore.dedup_ratio"] = ratio(m["explore.configs"], m["explore.steps"])
	m["explore.configs_per_s"] = ratio(m["explore.configs"], m["explore.wall_s"])
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type output struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEnd is the --trace 0 metric set.
func endToEnd(res *result) map[string]metric {
	return map[string]metric{
		"op_s":        {median(res.untraced), "s"},
		"setup_s":     {median(res.setup), "s"},
		"peak_rss_mb": {res.peakRSSMB, "MiB"},
		"ok_ratio":    {float64(res.attempted-res.failed) / float64(res.attempted), "ratio"},
	}
}

// layerUnit gives each per-layer metric its unit by name.
func layerUnit(name string) string {
	switch name {
	case "valency.configs_per_s", "explore.configs_per_s":
		return "1/s"
	case "explore.bytes_per_config", "dist.bytes_per_config":
		return "B/config"
	case "explore.allocs_per_config":
		return "allocs/config"
	case "runtime.alloc_bytes":
		return "B"
	case "valency.memo_hit_ratio", "valency.solo_hit_ratio", "explore.dedup_ratio",
		"dist.single_over_dist", "runtime.gc_cpu_share", "trace.overhead_frac":
		return "ratio"
	}
	if strings.HasSuffix(name, "_s") {
		return "s"
	}
	return "count"
}

// perLayerMetrics is the --trace 1 metric set.
func perLayerMetrics(res *result) map[string]metric {
	for _, m := range res.perOp {
		derive(m)
	}
	vals := layerMedians(perLayer, res.perOp)
	vals["trace.overhead_frac"] = ratio(median(res.traced), median(res.untraced)) - 1
	out := make(map[string]metric, len(vals))
	for name, v := range vals {
		out[name] = metric{v, layerUnit(name)}
	}
	return out
}

func main() {
	os.Exit(run())
}

func run() int {
	workload := flag.String("workload", "", "workload to run: "+fmt.Sprint(workloadNames))
	seed := flag.Int64("seed", 1, "workload seed (feeds the shard workers' retry jitter)")
	seconds := flag.Int("seconds", 20, "how long to run operations")
	trace := flag.Int("trace", 0, "1 = report per-layer metrics instead of end-to-end ones")
	flag.Parse()
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		return 2
	}
	setup, err := newRunner(*workload, fullSizes, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	// The deadline bounds a hung operation; a healthy run ends long before.
	ctx, cancel := context.WithTimeout(context.Background(), time.Duration(*seconds)*time.Second+150*time.Second)
	defer cancel()
	res, err := runWorkload(ctx, setup, time.Duration(*seconds)*time.Second, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	out := output{Correct: res.failed == 0, Attempted: res.attempted, Failed: res.failed}
	if *trace == 1 {
		out.Metrics = perLayerMetrics(res)
	} else {
		out.Metrics = endToEnd(res)
	}
	if len(res.unstable) > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: exact counts differed between operations: %v\n", res.unstable)
	}
	info, err := json.Marshal(map[string]any{
		"workload": *workload, "seed": *seed, "seconds": *seconds, "trace": *trace,
		"host": hostFacts(), "setup_s": res.setup, "untraced_s": res.untraced, "traced_s": res.traced,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(info))
	fmt.Println(string(line))
	return 0
}
