package valency

import (
	"context"
	"fmt"
	"log/slog"
	"math/bits"

	"repro/internal/explore"
	"repro/internal/model"
)

// Batched valency probes: many candidate process sets, one search.
//
// The adversary's Lemma 1 asks, for each z in a bivalent set P, whether
// P-{z} is still bivalent — n candidate sets whose p-only spaces overlap
// almost entirely (every configuration reachable without touching two of
// the processes is shared by n-2 of the candidates). Probing them one at a
// time re-explores that shared space once per candidate. The batch probe
// explores it once: a single BFS over the union space where every
// configuration carries a bitmask of the candidates for which the path
// that reached it is candidate-only. A step by process q propagates the
// parent's mask minus the candidates excluding q, so a set bit k on a node
// is a proof that the node's witness path is a candidates[k]-only
// execution — which makes decided values found under bit k certificates
// for candidate k, with the same replayable witness paths Decidable
// produces. The search is explore.ReachMasked, the packed engine's masked
// kernel; this file keeps only the candidate bookkeeping (live bits,
// witness ids, the replay check on certificates) and the memo semantics.
// The original Config-based loop survives as the differential oracle in
// batch_ref_test.go.
//
// Exactness mirrors ProbeBivalent: a candidate resolved bivalent within
// budget is exact; when the search drains the union frontier within budget
// every remaining candidate's space was exhausted and its (non-bivalent)
// verdict is exact too. Both are memoised as full verdicts. A
// budget-capped miss is inconclusive and leaves the memo untouched.
//
// Batch searches never snapshot mid-search (they are budget-bounded and
// cheap to redo); a crash-resumed run replays the whole batch and lands on
// the same memoised verdicts.

// maxBatchCandidates bounds one batch (the mask is a uint64).
const maxBatchCandidates = 64

// batchOutcome is one candidate's resolution within a batch.
type batchOutcome struct {
	verdict *Verdict
	exact   bool
}

// DecideBatch computes Decidable for every candidate process set in one
// shared search over the union of their p-only spaces. It is exact: if the
// oracle's configuration cap binds before the union space is exhausted and
// some candidate is still unresolved, it errors like Decidable would.
func (o *Oracle) DecideBatch(ctx context.Context, c model.Config, cands [][]int) ([]*Verdict, error) {
	outs, err := o.decideBatch(ctx, c, cands, 0)
	if err != nil {
		return nil, err
	}
	verdicts := make([]*Verdict, len(outs))
	for i, out := range outs {
		if !out.exact {
			return nil, fmt.Errorf("valency batch query |P|=%d: %w", len(cands[i]), explore.ErrCapped)
		}
		verdicts[i] = out.verdict
	}
	return verdicts, nil
}

// ProbeBivalentBatch is ProbeBivalent over many candidate sets at once,
// sharing one search (and one budget) across all of them. results[i] is
// true iff candidates[i] was certified bivalent; false means either an
// exact refutation (memoised) or an inconclusive budget miss (not
// memoised), exactly as for ProbeBivalent.
func (o *Oracle) ProbeBivalentBatch(ctx context.Context, c model.Config, cands [][]int, budget int) ([]bool, error) {
	outs, err := o.decideBatch(ctx, c, cands, budget)
	if err != nil {
		return nil, err
	}
	results := make([]bool, len(outs))
	for i, out := range outs {
		results[i] = out.verdict != nil && out.verdict.Bivalent()
	}
	return results, nil
}

// decideBatch is the shared worker: memo and solo fast paths per
// candidate, then one mask-annotated BFS for whatever remains. budget <= 0
// means the oracle's full cap.
func (o *Oracle) decideBatch(ctx context.Context, c model.Config, cands [][]int, budget int) ([]batchOutcome, error) {
	if len(cands) == 0 {
		return nil, fmt.Errorf("valency: empty candidate batch")
	}
	if len(cands) > maxBatchCandidates {
		return nil, fmt.Errorf("valency: batch of %d candidates exceeds %d", len(cands), maxBatchCandidates)
	}
	outs := make([]batchOutcome, len(cands))
	keys := make([]queryKey, len(cands))
	active := make([]int, 0, len(cands))
	for i, p := range cands {
		if len(p) == 0 {
			return nil, fmt.Errorf("valency: empty process set in batch")
		}
		o.stats.Queries++
		o.metrics.queries.Add(1)
		key, err := o.queryKey(c, p)
		if err != nil {
			return nil, err
		}
		keys[i] = key
		if v, ok := o.memo.verdicts[key]; ok {
			o.stats.Hits++
			o.metrics.hits.Add(1)
			o.probeOutcome(p, "memo", v.Bivalent())
			outs[i] = batchOutcome{verdict: v, exact: true}
			continue
		}
		active = append(active, i)
	}

	// Solo certificates first: SoloDeciding is memoised per (config, pid)
	// and every pid recurs in most candidates, so the whole pass costs at
	// most one tiny solo search per process.
	still := active[:0]
	for _, i := range active {
		verdict := newVerdict()
		if err := o.seedSolo(ctx, c, cands[i], verdict); err != nil {
			return nil, err
		}
		if verdict.Bivalent() {
			o.memo.verdicts[keys[i]] = verdict
			o.probeOutcome(cands[i], "solo-certificate", true)
			outs[i] = batchOutcome{verdict: verdict, exact: true}
			continue
		}
		outs[i] = batchOutcome{verdict: verdict}
		still = append(still, i)
	}
	active = still
	if len(active) == 0 {
		o.ckpt.Tick()
		return outs, nil
	}

	exhausted, err := o.batchSearch(ctx, c, cands, keys, active, outs, budget)
	if err != nil {
		return nil, err
	}
	for _, i := range active {
		out := &outs[i]
		switch {
		case out.exact:
			// Certified bivalent during the search (memoised there).
		case exhausted:
			o.memo.verdicts[keys[i]] = out.verdict
			o.probeOutcome(cands[i], "exhausted", false)
			out.exact = true
		default:
			o.probeOutcome(cands[i], "inconclusive", false)
		}
	}
	o.ckpt.Tick()
	return outs, nil
}

// batchSearch runs the mask BFS for the active candidates on explore's
// packed masked kernel, folding decided values into outs[i].verdict as they
// are found and memoising candidates that reach bivalence mid-search. Bit
// k of a node's mask stands for cands[active[k]]. It reports whether the
// union space was exhausted within budget.
func (o *Oracle) batchSearch(ctx context.Context, c model.Config, cands [][]int, keys []queryKey, active []int, outs []batchOutcome, budget int) (bool, error) {
	opts := o.opts
	opts.MaxConfigs = effectiveMax(opts)
	if budget > 0 && budget < opts.MaxConfigs {
		opts.MaxConfigs = budget
	}

	// union is the sorted union of the candidates' processes; allowed[j]
	// is the set of active candidates whose process set contains union[j].
	var byPid [64]uint64 // queryKey bounds pids to [0,64)
	for bit, i := range active {
		for _, pid := range cands[i] {
			byPid[pid] |= 1 << uint(bit)
		}
	}
	var union []int
	var allowed []uint64
	for pid, m := range byPid {
		if m != 0 {
			union = append(union, pid)
			allowed = append(allowed, m)
		}
	}

	liveBits := uint64(1)<<uint(len(active)) - 1 // candidates still seeking an answer
	// witnessIDs[bit] maps a decided value to the node certifying it for
	// that candidate.
	witnessIDs := make([]map[model.Value]int, len(active))
	for bit := range witnessIDs {
		witnessIDs[bit] = make(map[model.Value]int)
	}

	sp := o.opts.Obs.StartSpan("valency_batch", slog.Int("candidates", len(active)))
	res, err := explore.ReachMasked(ctx, c, union, allowed, opts, func(v explore.MaskedVisit) (uint64, error) {
		mask := v.Mask & liveBits
		if mask == 0 {
			return liveBits, nil
		}
		for _, pid := range union {
			val, ok := v.Config.Decided(pid)
			if !ok {
				continue
			}
			for m := mask & liveBits; m != 0; m &= m - 1 {
				bit := bits.TrailingZeros64(m)
				i := active[bit]
				verdict := outs[i].verdict
				if verdict.Decidable[val] {
					continue
				}
				verdict.Decidable[val] = true
				witnessIDs[bit][val] = v.ID
				if verdict.Bivalent() && !outs[i].exact {
					if err := o.finishBatchCandidate(c, cands[i], keys[i], &outs[i], v, witnessIDs[bit]); err != nil {
						return 0, err
					}
					liveBits &^= 1 << uint(bit)
				}
			}
		}
		return liveBits, nil
	})
	o.stats.Configs += res.Count
	o.stats.DeepestLevel = max(o.stats.DeepestLevel, res.Depth)
	o.metrics.configs.Add(int64(res.Count))
	o.metrics.queryConfigs.Observe(int64(res.Count))
	o.metrics.batchRawHits.Add(int64(res.RawHits))
	sp.End(slog.Int("configs", res.Count), slog.Bool("exhausted", !res.Capped),
		slog.Int("steps", res.Steps), slog.Int("raw_hits", res.RawHits))
	if err != nil {
		return false, fmt.Errorf("valency batch: %w", err)
	}
	if !res.Capped {
		// The union frontier drained: every unresolved candidate's space was
		// exhausted, so its found values are its whole decidable set —
		// materialise their witness paths for the memo.
		for bit, i := range active {
			if outs[i].exact {
				continue
			}
			for val, id := range witnessIDs[bit] {
				// Visit IDs are always in range: PathTo cannot fail here.
				outs[i].verdict.Witness[val], _ = res.PathTo(id)
			}
		}
	}
	return !res.Capped, nil
}

// finishBatchCandidate materialises witness paths for a candidate that
// reached bivalence mid-search and memoises its verdict.
func (o *Oracle) finishBatchCandidate(c model.Config, p []int, key queryKey, out *batchOutcome, v explore.MaskedVisit, ids map[model.Value]int) error {
	for val, id := range ids {
		// Visit IDs are always in range: PathTo cannot fail here.
		out.verdict.Witness[val], _ = v.PathTo(id)
	}
	for val, path := range out.verdict.Witness {
		if !model.RunPath(c, path).DecidedValues()[val] {
			return fmt.Errorf("witness for %q does not replay", string(val))
		}
	}
	o.memo.verdicts[key] = out.verdict
	o.probeOutcome(p, "search-certificate", true)
	out.exact = true
	return nil
}
