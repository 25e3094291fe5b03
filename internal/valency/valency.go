// Package valency implements the refined notion of valency from Section 3.1
// of Zhu's "A Tight Space Bound for Consensus": for a reachable configuration
// C and a non-empty set of processes P, the set of values P can decide from C
// via P-only executions (Definition 1), together with bivalence/univalence
// tests and witness executions.
//
// The paper treats "P can decide v from C" as a mathematical quantifier. The
// Oracle decides it by exhaustive P-only exploration (internal/explore) with
// memoisation on canonical configuration fingerprints. For the finite-state
// protocols this repository studies the answer is exact; if a protocol's
// reachable space exceeds the configured caps the oracle fails loudly rather
// than guessing.
//
// Two asymmetries shape the oracle's fast paths. Bivalence has a short
// positive certificate — one P-only execution deciding each value — while
// univalence requires exhausting the whole P-only space. And the cheapest
// certificates are usually solo executions: under the paper's
// solo-termination hypothesis every process decides running alone, and a
// solo run explores a tiny branch of the space. Decidable therefore seeds
// every query with the (memoised) solo-deciding executions of the processes
// in P before falling back to exhaustive search, and ProbeBivalent exposes
// the certificate-seeking mode with an explicit budget for callers (the
// adversary's Lemma 1) that can exploit a positive answer without needing
// the negative one.
package valency

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"slices"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/explore"
	"repro/internal/model"
	"repro/internal/obs"
)

// Binary consensus values, as in the paper.
const (
	V0 = model.Value("0")
	V1 = model.Value("1")
)

// Opposite returns the other binary value (v̄ in the paper).
func Opposite(v model.Value) model.Value {
	if v == V0 {
		return V1
	}
	return V0
}

// queryKey identifies a valency query: the 128-bit fingerprint of the
// configuration's canonical key plus the process set as a bitmask. As in
// the explore package, fingerprint equality is trusted as key equality: a
// false memo hit needs a 128-bit fingerprint collision, whose probability
// across any feasible number of queries is far below that of a hardware
// fault.
type queryKey struct {
	fp   explore.Fingerprint
	pids uint64
}

// soloKey identifies a solo-termination query.
type soloKey struct {
	fp  explore.Fingerprint
	pid int
}

// soloEntry is a memoised SoloDeciding answer: either a witness or a
// definite (in-bounds) refutation of solo termination.
type soloEntry struct {
	path model.Path
	val  model.Value
	err  string
}

// Memo is the shared memoisation state of one or more Oracles. The
// adversary's lemma stages construct their oracles with NewWithMemo over a
// common Memo so that, e.g., the valency queries Lemma 3 replays along
// prefixes already walked by Lemma 2 hit instead of re-exploring. Sharing
// is sound exactly when the oracles share exploration options (the
// fingerprints must mean the same canonical keys); NewWithMemo is the only
// way to opt in.
type Memo struct {
	verdicts map[queryKey]*Verdict
	solo     map[soloKey]*soloEntry
}

// NewMemo returns an empty memo table for NewWithMemo.
func NewMemo() *Memo {
	return &Memo{
		verdicts: make(map[queryKey]*Verdict),
		solo:     make(map[soloKey]*soloEntry),
	}
}

// Oracle answers valency queries for one protocol instance. It memoises
// decidable-value sets keyed by (configuration fingerprint, process set),
// which the adversary constructions in internal/adversary query heavily
// along overlapping prefixes.
type Oracle struct {
	opts  explore.Options
	memo  *Memo
	stats Stats
	// fper is the oracle's reusable fingerprint scratch: memo keys are
	// computed once per query on the oracle's own goroutine, so holding one
	// hasher beats a pool round-trip per key (TestQueryKeyAllocs pins the
	// allocation bound).
	fper *explore.Fingerprinter
	// metrics are the oracle's live counters, resolved once at
	// construction from opts.Obs; with observability disabled every
	// pointer is nil and each Add is a single nil-check (per query, never
	// per configuration).
	metrics oracleMetrics
	// ckpt, when set, receives save opportunities between queries and at
	// the BFS level boundaries of exhaustive searches (SetCheckpointer).
	ckpt *checkpoint.Coordinator
	// resume, when set, is a loaded in-flight query waiting for its
	// matching search (SetResume); consumed by the first match.
	resume *checkpoint.QueryData
}

// oracleMetrics mirrors Stats into the observability registry, live, so
// /debug/vars shows memo hit rates mid-run instead of a terminal snapshot.
type oracleMetrics struct {
	queries, hits         *obs.Counter
	soloQueries, soloHits *obs.Counter
	configs               *obs.Counter
	batchRawHits          *obs.Counter
	queryConfigs          *obs.Histogram
	queryUs               *obs.Histogram
}

// QueryLatencyBoundsMicros are the fixed buckets of the valency_query_us
// histogram: exhaustive queries span memo-adjacent microseconds to
// full-space searches of seconds.
var QueryLatencyBoundsMicros = []int64{100, 500, 1000, 5000, 10000, 50000, 100000, 500000, 1000000, 5000000, 30000000}

func newOracleMetrics(s *obs.Scope) oracleMetrics {
	if !s.Enabled() {
		return oracleMetrics{}
	}
	return oracleMetrics{
		queries:      s.Counter("valency_queries"),
		hits:         s.Counter("valency_memo_hits"),
		soloQueries:  s.Counter("valency_solo_queries"),
		soloHits:     s.Counter("valency_solo_hits"),
		configs:      s.Counter("valency_configs"),
		batchRawHits: s.Counter("valency_batch_raw_hits"),
		queryConfigs: s.Histogram("valency_query_configs", obs.LevelSizeBounds),
		queryUs:      s.Histogram("valency_query_us", QueryLatencyBoundsMicros),
	}
}

// Stats reports the work an oracle has done, for the experiment tables.
type Stats struct {
	// Queries counts Decidable/ProbeBivalent calls, Hits the memoised ones.
	Queries, Hits int
	// SoloQueries counts SoloDeciding searches, SoloHits the memoised ones
	// (already-decided fast paths are not counted).
	SoloQueries, SoloHits int
	// Configs is the total number of distinct configurations visited
	// across all non-memoised queries, solo searches included.
	Configs int
	// DeepestLevel is the deepest completed BFS level any search of this
	// oracle reached (partial-progress reporting keys on it).
	DeepestLevel int
}

// Verdict is the answer to one valency query.
type Verdict struct {
	// Decidable is the set of values decidable by P-only executions.
	Decidable map[model.Value]bool
	// Witness maps each decidable value to a P-only path from C to a
	// configuration in which that value has been decided.
	Witness map[model.Value]model.Path
}

// Bivalent reports whether both binary values are decidable.
func (v *Verdict) Bivalent() bool {
	return v.Decidable[V0] && v.Decidable[V1]
}

// Univalent returns the unique decidable value, if exactly one.
func (v *Verdict) Univalent() (model.Value, bool) {
	if len(v.Decidable) != 1 {
		return model.Bottom, false
	}
	for val := range v.Decidable {
		return val, true
	}
	return model.Bottom, false
}

// Any returns some decidable value (Proposition 1(i) guarantees one exists
// for correct protocols). The boolean is false for a protocol that can reach
// a decision-free sink, which would itself violate solo termination.
func (v *Verdict) Any() (model.Value, bool) {
	for val := range v.Decidable {
		return val, true
	}
	return model.Bottom, false
}

// New returns an oracle using the given exploration bounds, with a private
// memo table.
func New(opts explore.Options) *Oracle {
	return NewWithMemo(opts, NewMemo())
}

// NewWithMemo returns an oracle sharing the given memo table. All oracles
// sharing a memo must use identical exploration options.
func NewWithMemo(opts explore.Options, memo *Memo) *Oracle {
	return &Oracle{opts: opts, memo: memo, fper: opts.NewFingerprinter(), metrics: newOracleMetrics(opts.Obs)}
}

// Stats returns a copy of the oracle's work counters.
func (o *Oracle) Stats() Stats { return o.stats }

// Obs returns the observability scope the oracle's exploration options
// carry (nil when disabled); the adversary engine traces through it.
func (o *Oracle) Obs() *obs.Scope { return o.opts.Obs }

func (o *Oracle) queryKey(c model.Config, p []int) (queryKey, error) {
	var mask uint64
	for _, pid := range p {
		if pid < 0 || pid >= 64 {
			return queryKey{}, fmt.Errorf("valency: pid %d outside memo-key range [0,64)", pid)
		}
		mask |= 1 << uint(pid)
	}
	return queryKey{fp: o.fper.Fingerprint(c), pids: mask}, nil
}

func newVerdict() *Verdict {
	return &Verdict{
		Decidable: make(map[model.Value]bool),
		Witness:   make(map[model.Value]model.Path),
	}
}

// seedSolo seeds verdict with the (memoised) solo-deciding executions of
// the processes in p — each is a p-only execution, so every value it
// decides belongs in the decidable set. Processes that cannot decide solo
// within bounds contribute nothing and the error is swallowed (the
// exhaustive search still decides the query); only context cancellation
// propagates.
func (o *Oracle) seedSolo(ctx context.Context, c model.Config, p []int, verdict *Verdict) error {
	for _, pid := range p {
		path, val, err := o.SoloDeciding(ctx, c, pid)
		if err != nil {
			if ctx.Err() != nil {
				return fmt.Errorf("valency solo seed p%d: %w", pid, err)
			}
			continue
		}
		if !verdict.Decidable[val] {
			verdict.Decidable[val] = true
			verdict.Witness[val] = path
		}
		if verdict.Bivalent() {
			return nil
		}
	}
	return nil
}

// exploreDecidable runs the exhaustive p-only search, folding decided
// values into verdict. Values already seeded keep their witnesses; the
// search stops as soon as the verdict is bivalent.
//
// With a checkpointer attached, every BFS level boundary offers an
// in-flight snapshot keyed by (key, effective cap); and when a loaded
// snapshot with that exact key is pending, the search re-enters at its
// stored level, with the values it had already discovered pre-seeded.
func (o *Oracle) exploreDecidable(ctx context.Context, key queryKey, c model.Config, p []int, opts explore.Options, verdict *Verdict) error {
	witnessIDs := make(map[model.Value]int)
	if o.ckpt != nil {
		effMax := effectiveMax(opts)
		opts.Snapshot = func(sn *explore.Snapshotter) {
			o.ckpt.TickQuery(func() *checkpoint.QueryData {
				data, err := sn.Data()
				if err != nil {
					return nil
				}
				return buildQueryData(key, effMax, data, witnessIDs)
			})
		}
	}
	if q := o.resume; q != nil && explore.Fingerprint(q.FP) == key.fp && q.Pids == key.pids && q.MaxConfigs == effectiveMax(opts) {
		o.resume = nil
		opts.ResumeFrom = restoreQueryData(q)
		for _, f := range q.Found {
			val := model.Value(f.Value)
			if !verdict.Decidable[val] {
				verdict.Decidable[val] = true
				witnessIDs[val] = f.ID
			}
		}
	}
	numProcs := c.NumProcesses()
	searchStart := time.Now()
	res, err := explore.Reach(ctx, c, p, opts, func(v explore.Visit) bool {
		// Per-pid Decided probes instead of DecidedValues(): the latter
		// builds a map per visited configuration, which dominated the
		// query's allocations.
		for pid := 0; pid < numProcs; pid++ {
			val, ok := v.Config.Decided(pid)
			if !ok {
				continue
			}
			if !verdict.Decidable[val] {
				verdict.Decidable[val] = true
				witnessIDs[val] = v.ID
			}
		}
		// Both binary values found: executions witnessing them are
		// already recorded, so the query can stop here — for valency,
		// bivalence is maximal knowledge.
		return !(verdict.Decidable[V0] && verdict.Decidable[V1])
	})
	o.stats.Configs += res.Count
	o.stats.DeepestLevel = max(o.stats.DeepestLevel, res.Depth)
	o.metrics.configs.Add(int64(res.Count))
	o.metrics.queryConfigs.Observe(int64(res.Count))
	o.metrics.queryUs.Observe(time.Since(searchStart).Microseconds())
	for val, id := range witnessIDs {
		path, ok := res.PathTo(id)
		if !ok {
			return fmt.Errorf("valency: lost witness for %q", string(val))
		}
		verdict.Witness[val] = path
	}
	return err
}

// Decidable computes the set of values the process set p can decide from c
// (Definition 1), with witness executions. p must be non-empty and sorted
// (use model.PidList / model.Without to build process sets).
func (o *Oracle) Decidable(ctx context.Context, c model.Config, p []int) (*Verdict, error) {
	if len(p) == 0 {
		return nil, fmt.Errorf("valency: empty process set")
	}
	o.stats.Queries++
	o.metrics.queries.Add(1)
	key, err := o.queryKey(c, p)
	if err != nil {
		return nil, err
	}
	if v, ok := o.memo.verdicts[key]; ok {
		o.stats.Hits++
		o.metrics.hits.Add(1)
		return v, nil
	}
	verdict := newVerdict()
	if err := o.seedSolo(ctx, c, p, verdict); err != nil {
		return nil, err
	}
	if verdict.Bivalent() {
		// Two solo certificates already prove bivalence — maximal
		// knowledge, no exhaustive search needed.
		o.memo.verdicts[key] = verdict
		return verdict, nil
	}
	sp := o.opts.Obs.StartSpan("valency_decidable", slog.Int("procs", len(p)))
	before := o.stats.Configs
	err = o.exploreDecidable(ctx, key, c, p, o.opts, verdict)
	sp.End(slog.Int("configs", o.stats.Configs-before), slog.Bool("bivalent", verdict.Bivalent()))
	// A capped search that already proved bivalence is still exact:
	// decidable sets only grow, and {0,1} is maximal.
	if err != nil && !verdict.Bivalent() {
		return nil, fmt.Errorf("valency query |P|=%d: %w", len(p), err)
	}
	o.memo.verdicts[key] = verdict
	o.ckpt.Tick()
	return verdict, nil
}

// ProbeBivalent asks only whether p is bivalent from c, spending at most
// budget configurations (0 means the oracle's full MaxConfigs). Unlike
// Bivalent it can return without an answer: (false, nil) means "no
// bivalence certificate found within budget", NOT "univalent". Positive
// answers and exhausted (in-budget) searches are exact and memoised as full
// verdicts; budget-capped misses are not memoised, so a later exhaustive
// query is unimpeded.
//
// The probe is what makes bivalence's asymmetry exploitable: the
// adversary's Lemma 1 needs only *some* process whose removal leaves a
// bivalent set, and finding one costs two solo certificates instead of
// exhausting a |P|-1 space.
func (o *Oracle) ProbeBivalent(ctx context.Context, c model.Config, p []int, budget int) (bool, error) {
	if len(p) == 0 {
		return false, fmt.Errorf("valency: empty process set")
	}
	o.stats.Queries++
	o.metrics.queries.Add(1)
	key, err := o.queryKey(c, p)
	if err != nil {
		return false, err
	}
	if v, ok := o.memo.verdicts[key]; ok {
		o.stats.Hits++
		o.metrics.hits.Add(1)
		o.probeOutcome(p, "memo", v.Bivalent())
		return v.Bivalent(), nil
	}
	verdict := newVerdict()
	if err := o.seedSolo(ctx, c, p, verdict); err != nil {
		return false, err
	}
	if verdict.Bivalent() {
		o.memo.verdicts[key] = verdict
		o.probeOutcome(p, "solo-certificate", true)
		return true, nil
	}
	opts := o.opts
	if budget > 0 && budget < opts.MaxConfigs {
		opts.MaxConfigs = budget
	} else if budget > 0 && opts.MaxConfigs <= 0 && budget < explore.DefaultMaxConfigs {
		opts.MaxConfigs = budget
	}
	err = o.exploreDecidable(ctx, key, c, p, opts, verdict)
	switch {
	case verdict.Bivalent():
		o.memo.verdicts[key] = verdict
		o.probeOutcome(p, "search-certificate", true)
		o.ckpt.Tick()
		return true, nil
	case err == nil:
		// The p-only space was exhausted within budget: the verdict is
		// exact (and not bivalent), so memoise it like Decidable would.
		o.memo.verdicts[key] = verdict
		o.probeOutcome(p, "exhausted", false)
		o.ckpt.Tick()
		return false, nil
	case ctx.Err() != nil:
		return false, fmt.Errorf("valency probe |P|=%d: %w", len(p), err)
	default:
		// Budget exhausted without a certificate: inconclusive, leave
		// the memo empty for a future exhaustive query.
		o.probeOutcome(p, "inconclusive", false)
		return false, nil
	}
}

// probeOutcome records one ProbeBivalent resolution as a counter bump and a
// trace event; outcome names the evidence that settled (or failed to
// settle) the probe.
func (o *Oracle) probeOutcome(p []int, outcome string, bivalent bool) {
	s := o.opts.Obs
	if !s.Enabled() {
		return
	}
	s.Counter("valency_probe_" + outcome).Add(1)
	s.Event("valency_probe",
		slog.Int("procs", len(p)),
		slog.String("outcome", outcome),
		slog.Bool("bivalent", bivalent),
	)
}

// Bivalent reports whether p is bivalent from c (Definition 1).
func (o *Oracle) Bivalent(ctx context.Context, c model.Config, p []int) (bool, error) {
	v, err := o.Decidable(ctx, c, p)
	if err != nil {
		return false, err
	}
	return v.Bivalent(), nil
}

// CanDecide reports whether p can decide val from c.
func (o *Oracle) CanDecide(ctx context.Context, c model.Config, p []int, val model.Value) (bool, error) {
	v, err := o.Decidable(ctx, c, p)
	if err != nil {
		return false, err
	}
	return v.Decidable[val], nil
}

// Univalent reports whether p is v-univalent from c for some v, returning v.
func (o *Oracle) Univalent(ctx context.Context, c model.Config, p []int) (model.Value, bool, error) {
	v, err := o.Decidable(ctx, c, p)
	if err != nil {
		return model.Bottom, false, err
	}
	val, ok := v.Univalent()
	return val, ok, nil
}

// SoloDeciding returns a {pid}-only execution from c in which pid decides,
// together with the decided value. Its existence for every reachable c and
// every pid is exactly the paper's "nondeterministic solo terminating"
// hypothesis; an error therefore means the protocol under test is not NST
// within the oracle's bounds.
//
// Answers are memoised per (configuration fingerprint, pid): Lemmas 2 and 3
// re-ask along overlapping execution prefixes, and Decidable's solo seeding
// asks again for every superset query. Definite refutations are memoised
// too; bounded failures (context, caps) are not, since a retry with more
// budget could succeed.
func (o *Oracle) SoloDeciding(ctx context.Context, c model.Config, pid int) (model.Path, model.Value, error) {
	if v, ok := c.Decided(pid); ok {
		return nil, v, nil
	}
	o.stats.SoloQueries++
	o.metrics.soloQueries.Add(1)
	key := soloKey{fp: o.fper.Fingerprint(c), pid: pid}
	if e, ok := o.memo.solo[key]; ok {
		o.stats.SoloHits++
		o.metrics.soloHits.Add(1)
		if e.err != "" {
			return nil, model.Bottom, errors.New(e.err)
		}
		// Clone: callers splice witness paths into longer schedules.
		return slices.Clone(e.path), e.val, nil
	}
	var (
		decided model.Value
		foundID = -1
	)
	sp := o.opts.Obs.StartSpan("valency_solo", slog.Int("pid", pid))
	res, err := explore.Reach(ctx, c, []int{pid}, o.opts, func(v explore.Visit) bool {
		if val, ok := v.Config.Decided(pid); ok {
			decided = val
			foundID = v.ID
			return false // stop: witness located
		}
		return true
	})
	sp.End(slog.Int("configs", res.Count), slog.Bool("decided", foundID >= 0))
	o.stats.Configs += res.Count
	o.stats.DeepestLevel = max(o.stats.DeepestLevel, res.Depth)
	o.metrics.configs.Add(int64(res.Count))
	if foundID < 0 {
		if err != nil {
			return nil, model.Bottom, fmt.Errorf("solo termination search for p%d: %w", pid, err)
		}
		nstErr := fmt.Errorf(
			"protocol is not solo terminating: p%d cannot decide solo (%d configs searched)",
			pid, res.Count)
		o.memo.solo[key] = &soloEntry{err: nstErr.Error()}
		return nil, model.Bottom, nstErr
	}
	path, ok := res.PathTo(foundID)
	if !ok {
		return nil, model.Bottom, fmt.Errorf("valency: lost solo witness for p%d", pid)
	}
	o.memo.solo[key] = &soloEntry{path: path, val: decided}
	return slices.Clone(path), decided, nil
}
