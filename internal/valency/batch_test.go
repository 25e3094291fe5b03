package valency

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/consensus"
	"repro/internal/explore"
	"repro/internal/model"
	"repro/internal/obs"
)

// TestDecideBatchMatchesDecidable: the batched verdicts must coincide with
// a fresh sequential oracle's Decidable on every candidate — same decidable
// sets, replayable witnesses — across random reachable flood configurations.
func TestDecideBatchMatchesDecidable(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	cands := [][]int{{0}, {1}, {0, 1}}
	for trial := 0; trial < 60; trial++ {
		c := floodConfig("0", "1")
		for s := 0; s < rng.Intn(12); s++ {
			c = c.StepDet(rng.Intn(2))
		}
		batched := New(explore.Options{})
		verdicts, err := batched.DecideBatch(context.Background(), c, cands)
		if err != nil {
			t.Fatal(err)
		}
		sequential := New(explore.Options{})
		for i, p := range cands {
			want, err := sequential.Decidable(context.Background(), c, p)
			if err != nil {
				t.Fatal(err)
			}
			got := verdicts[i]
			for _, val := range []model.Value{V0, V1} {
				if got.Decidable[val] != want.Decidable[val] {
					t.Fatalf("trial %d set %v: batch decidable[%s]=%v, sequential=%v",
						trial, p, string(val), got.Decidable[val], want.Decidable[val])
				}
			}
			for val := range got.Decidable {
				if !model.RunPath(c, got.Witness[val]).DecidedValues()[val] {
					t.Fatalf("trial %d set %v: batch witness for %s does not replay", trial, p, string(val))
				}
			}
		}
	}
}

// TestProbeBivalentBatchMatchesSequential: with an unbounded budget both the
// batch and the per-candidate probe are exact, so their answers must agree
// on DiskRace Lemma 1 candidate sets.
func TestProbeBivalentBatchMatchesSequential(t *testing.T) {
	disk := consensus.DiskRace{}
	opts := explore.Options{Identity: disk}
	c := model.NewConfig(disk, []model.Value{"0", "1", "1"})
	p := []int{0, 1, 2}
	cands := make([][]int, len(p))
	for i, z := range p {
		cands[i] = model.Without(p, z)
	}
	batched := New(opts)
	got, err := batched.ProbeBivalentBatch(context.Background(), c, cands, 0)
	if err != nil {
		t.Fatal(err)
	}
	sequential := New(opts)
	for i, cand := range cands {
		want, err := sequential.ProbeBivalent(context.Background(), c, cand, 0)
		if err != nil {
			t.Fatal(err)
		}
		if got[i] != want {
			t.Fatalf("candidate %v: batch=%v sequential=%v", cand, got[i], want)
		}
	}
}

// TestBatchMemoProtocol pins the batch's memoisation contract to the
// sequential probe's: memoised answers hit, positive and exhausted verdicts
// are exact and memoised, budget-capped misses leave the memo untouched.
func TestBatchMemoProtocol(t *testing.T) {
	t.Run("positive and exhausted memoised", func(t *testing.T) {
		o := New(explore.Options{})
		c := floodConfig("0", "1")
		// {0,1} is bivalent (solo certificates), {0} and {1} are univalent
		// (exhausted in budget): all three verdicts become exact memo rows.
		if _, err := o.ProbeBivalentBatch(context.Background(), c, [][]int{{0, 1}, {0}, {1}}, 0); err != nil {
			t.Fatal(err)
		}
		before := o.Stats()
		for _, p := range [][]int{{0, 1}, {0}, {1}} {
			if _, err := o.Decidable(context.Background(), c, p); err != nil {
				t.Fatal(err)
			}
		}
		if s := o.Stats(); s.Hits != before.Hits+3 {
			t.Fatalf("stats %+v -> %+v, want 3 memo hits", before, s)
		}
	})
	t.Run("inconclusive not memoised", func(t *testing.T) {
		disk := consensus.DiskRace{}
		o := New(explore.Options{Identity: disk})
		// Unanimous inputs: no bivalence certificate exists and the
		// 2-process spaces are too big for the budget, so every candidate
		// is inconclusive.
		c := model.NewConfig(disk, []model.Value{"1", "1", "1"})
		cands := [][]int{{0, 1}, {0, 2}, {1, 2}}
		got, err := o.ProbeBivalentBatch(context.Background(), c, cands, 48)
		if err != nil {
			t.Fatal(err)
		}
		for i, biv := range got {
			if biv {
				t.Fatalf("budget-capped candidate %v claimed bivalence", cands[i])
			}
		}
		before := o.Stats()
		v, err := o.Decidable(context.Background(), c, []int{0, 1})
		if err != nil {
			t.Fatal(err)
		}
		if o.Stats().Hits != before.Hits {
			t.Fatal("inconclusive batch outcome was memoised")
		}
		if got, ok := v.Univalent(); !ok || got != V1 {
			t.Fatalf("unanimous pair decidable = %v, want 1-univalent", v.Decidable)
		}
	})
	t.Run("DecideBatch errors when capped", func(t *testing.T) {
		o := New(explore.Options{MaxConfigs: 4, Identity: consensus.DiskRace{}})
		c := model.NewConfig(consensus.DiskRace{}, []model.Value{"1", "1", "1"})
		if _, err := o.DecideBatch(context.Background(), c, [][]int{{0, 1}}); err == nil {
			t.Fatal("capped DecideBatch returned verdicts")
		}
	})
}

// TestQueryKeyAllocs pins the memo-hit fast path's allocation budget: with
// the oracle's reusable fingerprint scratch, a memoised Decidable query
// must not allocate per call.
func TestQueryKeyAllocs(t *testing.T) {
	o := New(explore.Options{})
	c := floodConfig("0", "1")
	p := []int{0, 1}
	ctx := context.Background()
	if _, err := o.Decidable(ctx, c, p); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := o.Decidable(ctx, c, p); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2 {
		t.Fatalf("memo-hit Decidable allocates %.1f per query, want <= 2", allocs)
	}
}

// batchCase is one differential input: a configuration, its candidate
// process sets, the batch budget, and whether candidates are solo-seeded
// first (as decideBatch does) or enter the search with empty verdicts.
type batchCase struct {
	name   string
	opts   explore.Options
	c      model.Config
	cands  [][]int
	budget int
	seed   bool
}

// batchRun is what one search produced, for comparison.
type batchRun struct {
	exhausted bool
	err       error
	stats     Stats
	outs      []batchOutcome
	active    []int
}

// runBatchCase prepares the candidates on a fresh oracle exactly as
// decideBatch would (minus the memo, which is cold) and hands them to
// search.
func runBatchCase(t *testing.T, bc batchCase, search func(o *Oracle, keys []queryKey, active []int, outs []batchOutcome) (bool, error)) batchRun {
	t.Helper()
	ctx := context.Background()
	o := New(bc.opts)
	outs := make([]batchOutcome, len(bc.cands))
	keys := make([]queryKey, len(bc.cands))
	var active []int
	for i, p := range bc.cands {
		key, err := o.queryKey(bc.c, p)
		if err != nil {
			t.Fatal(err)
		}
		keys[i] = key
		verdict := newVerdict()
		if bc.seed {
			if err := o.seedSolo(ctx, bc.c, p, verdict); err != nil {
				t.Fatal(err)
			}
		}
		outs[i] = batchOutcome{verdict: verdict}
		if !verdict.Bivalent() {
			active = append(active, i)
		}
	}
	run := batchRun{outs: outs, active: active}
	if len(active) > 0 {
		run.exhausted, run.err = search(o, keys, active, outs)
	}
	run.stats = o.Stats()
	return run
}

func lemma1Cands(p []int) [][]int {
	cands := make([][]int, len(p))
	for i, z := range p {
		cands[i] = model.Without(p, z)
	}
	return cands
}

// TestBatchKernelMatchesReference holds the packed masked kernel to the
// original Config-based batch loop (batch_ref_test.go): identical
// configuration counts, deepest level, exhausted flag, per-candidate
// verdicts and byte-identical witness paths, on DiskRace Lemma 1 batches
// across the budgets the adversary uses and on flood and coin-flood
// batches. It also requires the inputs to exercise the mask-upgrade path
// (a configuration re-reached with new candidate bits) in both searches.
func TestBatchKernelMatchesReference(t *testing.T) {
	disk := consensus.DiskRace{}
	diskOpts := explore.Options{Identity: disk}
	const probeBudget = 1 << 16 // adversary.DefaultProbeBudget
	var cases []batchCase
	for _, in := range [][]model.Value{{"0", "1", "1"}, {"1", "0", "1"}, {"1", "1", "1"}} {
		for _, budget := range []int{0, 48, 4096, probeBudget} {
			for _, seed := range []bool{true, false} {
				cases = append(cases, batchCase{
					name: fmt.Sprintf("diskrace-n3-%s-b%d-seed=%v", strings.Join(valueStrings(in), ""), budget, seed),
					opts: diskOpts, c: model.NewConfig(disk, in), cands: lemma1Cands([]int{0, 1, 2}), budget: budget, seed: seed,
				})
			}
		}
	}
	// At n=4 the union space dwarfs the default cap, so budget 0 (the
	// oracle's own cap) is exercised under a smaller oracle cap — smaller
	// still under the race detector, which slows the searches tenfold.
	diskOpts4 := diskOpts
	diskOpts4.MaxConfigs = 1 << 17
	if raceEnabled {
		diskOpts4.MaxConfigs = 1 << 13
	}
	for _, in := range [][]model.Value{{"0", "1", "1", "1"}, {"1", "1", "1", "1"}} {
		for _, budget := range []int{0, 48, 4096, probeBudget} {
			cases = append(cases, batchCase{
				name: fmt.Sprintf("diskrace-n4-%s-b%d", strings.Join(valueStrings(in), ""), budget),
				opts: diskOpts4, c: model.NewConfig(disk, in), cands: lemma1Cands([]int{0, 1, 2, 3}), budget: budget, seed: true,
			})
		}
	}
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 20; trial++ {
		c := model.NewConfig(consensus.Flood{}, []model.Value{"0", "1", "0"})
		for s := rng.Intn(10); s > 0; s-- {
			c = c.StepDet(rng.Intn(3))
		}
		cands := [][]int{{0}, {1}, {2}, {0, 1}, {1, 2}, {0, 2}, {0, 1, 2}}
		cases = append(cases, batchCase{name: fmt.Sprintf("flood-n3-%d", trial), c: c, cands: cands, seed: trial%2 == 0})
	}
	for _, in := range [][]model.Value{{"0", "1"}, {"1", "0"}, {"1", "1"}} {
		cases = append(cases, batchCase{
			name: "coinflood-" + strings.Join(valueStrings(in), ""),
			c:    model.NewConfig(consensus.CoinFlood{}, in), cands: [][]int{{0}, {1}, {0, 1}}, budget: 4096,
		})
	}

	upgrades := 0
	for _, bc := range cases {
		t.Run(bc.name, func(t *testing.T) {
			refNodes, refConfigs := 0, 0
			want := runBatchCase(t, bc, func(o *Oracle, keys []queryKey, active []int, outs []batchOutcome) (bool, error) {
				before := o.stats.Configs
				exh, n, err := o.refBatchSearch(context.Background(), bc.c, bc.cands, keys, active, outs, bc.budget)
				refNodes, refConfigs = n, o.stats.Configs-before
				return exh, err
			})
			got := runBatchCase(t, bc, func(o *Oracle, keys []queryKey, active []int, outs []batchOutcome) (bool, error) {
				return o.batchSearch(context.Background(), bc.c, bc.cands, keys, active, outs, bc.budget)
			})
			if want.err != nil || got.err != nil {
				t.Fatalf("errors: reference %v, kernel %v", want.err, got.err)
			}
			if got.exhausted != want.exhausted || got.stats != want.stats {
				t.Fatalf("kernel exhausted=%v stats=%+v, reference exhausted=%v stats=%+v",
					got.exhausted, got.stats, want.exhausted, want.stats)
			}
			if !slices.Equal(got.active, want.active) {
				t.Fatalf("active candidates differ: %v vs %v", got.active, want.active)
			}
			for i := range want.outs {
				g, w := got.outs[i], want.outs[i]
				if g.exact != w.exact || !maps.Equal(g.verdict.Decidable, w.verdict.Decidable) ||
					!maps.EqualFunc(g.verdict.Witness, w.verdict.Witness, slices.Equal[model.Path]) {
					t.Fatalf("candidate %v: kernel exact=%v %v %v, reference exact=%v %v %v", bc.cands[i],
						g.exact, g.verdict.Decidable, g.verdict.Witness, w.exact, w.verdict.Decidable, w.verdict.Witness)
				}
			}
			t.Logf("configs=%d nodes=%d exhausted=%v", refConfigs, refNodes, want.exhausted)
			if refNodes > refConfigs {
				upgrades++
			}
		})
	}
	if upgrades == 0 {
		t.Fatal("no input exercised the mask-upgrade path (nodes > configs)")
	}
}

func valueStrings(vs []model.Value) []string {
	out := make([]string, len(vs))
	for i, v := range vs {
		out[i] = string(v)
	}
	return out
}

// TestBatchSearchAllocs pins the batch probe's heap allocations per visited
// configuration on a DiskRace n=3 Lemma 1 batch explored to exhaustion:
// the packed kernel keeps no Config per node and steps packed records in
// place, so allocations come only from amortised table and arena growth,
// codec interning and the verdict bookkeeping.
func TestBatchSearchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation inflates allocation counts")
	}
	disk := consensus.DiskRace{}
	bc := batchCase{
		opts:  explore.Options{Identity: disk},
		c:     model.NewConfig(disk, []model.Value{"0", "1", "1"}),
		cands: lemma1Cands([]int{0, 1, 2}),
	}
	measure := func(search func(o *Oracle, keys []queryKey, active []int, outs []batchOutcome) (bool, error)) float64 {
		configs := 0
		allocs := testing.AllocsPerRun(3, func() {
			run := runBatchCase(t, bc, func(o *Oracle, keys []queryKey, active []int, outs []batchOutcome) (bool, error) {
				before := o.stats.Configs
				exh, err := search(o, keys, active, outs)
				configs = o.stats.Configs - before
				return exh, err
			})
			if run.err != nil || !run.exhausted {
				t.Fatalf("err=%v exhausted=%v", run.err, run.exhausted)
			}
		})
		return allocs / float64(configs)
	}
	got := measure(func(o *Oracle, keys []queryKey, active []int, outs []batchOutcome) (bool, error) {
		return o.batchSearch(context.Background(), bc.c, bc.cands, keys, active, outs, 0)
	})
	ref := measure(func(o *Oracle, keys []queryKey, active []int, outs []batchOutcome) (bool, error) {
		exh, _, err := o.refBatchSearch(context.Background(), bc.c, bc.cands, keys, active, outs, 0)
		return exh, err
	})
	t.Logf("allocs per visited configuration: kernel %.2f, reference %.2f", got, ref)
	if got > 1 {
		t.Fatalf("batch probe allocates %.2f per visited configuration, want <= 1", got)
	}
}

// TestBatchSpanAttributes: a traced batch probe closes its valency_batch
// span with the kernel's steps and pre-filter hits, and the
// valency_batch_raw_hits counter accumulates the same hits.
func TestBatchSpanAttributes(t *testing.T) {
	var buf bytes.Buffer
	scope := obs.NewScope(obs.NewTracer(&buf))
	disk := consensus.DiskRace{}
	o := New(explore.Options{Identity: disk, Obs: scope})
	c := model.NewConfig(disk, []model.Value{"1", "1", "1"})
	if _, err := o.ProbeBivalentBatch(context.Background(), c, lemma1Cands([]int{0, 1, 2}), 4096); err != nil {
		t.Fatal(err)
	}
	var ends int
	var rawHits int64
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var rec struct {
			Msg     string `json:"msg"`
			T       string `json:"t"`
			Configs int64  `json:"configs"`
			Steps   *int64 `json:"steps"`
			RawHits *int64 `json:"raw_hits"`
		}
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("trace line %q: %v", line, err)
		}
		if rec.Msg != "valency_batch" || rec.T != "span_end" {
			continue
		}
		ends++
		if rec.Steps == nil || rec.RawHits == nil {
			t.Fatalf("valency_batch span_end lacks steps/raw_hits: %s", line)
		}
		if *rec.RawHits <= 0 || *rec.RawHits > *rec.Steps || *rec.Steps < rec.Configs-1 {
			t.Fatalf("implausible span counts: %s", line)
		}
		rawHits += *rec.RawHits
	}
	if ends != 1 {
		t.Fatalf("%d valency_batch span ends, want 1", ends)
	}
	if got := scope.Registry().Counter("valency_batch_raw_hits").Value(); got != rawHits {
		t.Fatalf("valency_batch_raw_hits = %d, spans report %d", got, rawHits)
	}
}
