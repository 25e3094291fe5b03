package valency

import (
	"context"
	"fmt"
	"math/bits"
	"slices"

	"repro/internal/explore"
	"repro/internal/model"
)

// refBatchSearch is the original Config-based batch loop, kept as the
// differential oracle for batchSearch: a FIFO mask BFS that applies every
// move to a full model.Config, fingerprints every child canonically and
// retains every visited configuration. It returns the same exhausted flag
// as batchSearch, folds verdicts into outs the same way, and also reports
// its forest size (nodes) so tests can see mask upgrades.
func (o *Oracle) refBatchSearch(ctx context.Context, c model.Config, cands [][]int, keys []queryKey, active []int, outs []batchOutcome, budget int) (exhausted bool, nodeCount int, err error) {
	opts := o.opts
	maxConfigs := effectiveMax(opts)
	if budget > 0 && budget < maxConfigs {
		maxConfigs = budget
	}
	inUnion := make(map[int]uint64)
	for bit, i := range active {
		for _, pid := range cands[i] {
			inUnion[pid] |= 1 << uint(bit)
		}
	}
	union := make([]int, 0, len(inUnion))
	for pid := range inUnion {
		union = append(union, pid)
	}
	slices.Sort(union)

	type refNode struct {
		parent int32
		depth  int32
		via    model.Move
		mask   uint64
	}
	pathTo := func(nodes []refNode, id int32) model.Path {
		var rev model.Path
		for id > 0 {
			rev = append(rev, nodes[id].via)
			id = nodes[id].parent
		}
		slices.Reverse(rev)
		return rev
	}

	allBits := uint64(1)<<uint(len(active)) - 1
	liveBits := allBits
	fper := opts.NewFingerprinter()
	seen := map[explore.Fingerprint]uint64{fper.Fingerprint(c): allBits}
	nodes := []refNode{{parent: -1, mask: allBits}}
	cfgs := []model.Config{c}
	witnessIDs := make([]map[model.Value]int32, len(active))
	for bit := range witnessIDs {
		witnessIDs[bit] = make(map[model.Value]int32)
	}
	count := 0
	capped := false
	defer func() {
		o.stats.Configs += count
		nodeCount = len(nodes)
	}()

	finish := func(i int, ids map[model.Value]int32) error {
		out := &outs[i]
		for val, id := range ids {
			out.verdict.Witness[val] = pathTo(nodes, id)
		}
		for val, path := range out.verdict.Witness {
			if !model.RunPath(c, path).DecidedValues()[val] {
				return fmt.Errorf("reference batch: witness for %q does not replay", string(val))
			}
		}
		o.memo.verdicts[keys[i]] = out.verdict
		out.exact = true
		return nil
	}
	note := func(id int32) error {
		mask := nodes[id].mask & liveBits
		if mask == 0 {
			return nil
		}
		cfg := cfgs[id]
		for _, pid := range union {
			val, ok := cfg.Decided(pid)
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
				witnessIDs[bit][val] = id
				if verdict.Bivalent() && !outs[i].exact {
					if err := finish(i, witnessIDs[bit]); err != nil {
						return err
					}
					liveBits &^= 1 << uint(bit)
				}
			}
		}
		return nil
	}
	count++
	if err := note(0); err != nil {
		return false, 0, err
	}
	for lo := 0; lo < len(nodes) && liveBits != 0; lo++ {
		if err := ctx.Err(); err != nil {
			return false, 0, err
		}
		if count >= maxConfigs {
			capped = true
			break
		}
		n := nodes[lo]
		mask := n.mask & liveBits
		if mask == 0 {
			continue
		}
		cfg := cfgs[lo]
		for _, mv := range explore.Moves(cfg, union) {
			childMask := mask & inUnion[mv.Pid]
			if childMask == 0 {
				continue
			}
			child := model.ApplyMove(cfg, mv)
			fp := fper.Fingerprint(child)
			prev, ok := seen[fp]
			if ok && childMask&^prev == 0 {
				continue
			}
			if !ok {
				count++
			}
			seen[fp] = prev | childMask
			id := int32(len(nodes))
			nodes = append(nodes, refNode{parent: int32(lo), depth: n.depth + 1, via: mv, mask: childMask})
			cfgs = append(cfgs, child)
			o.stats.DeepestLevel = max(o.stats.DeepestLevel, int(n.depth)+1)
			if err := note(id); err != nil {
				return false, 0, err
			}
			if liveBits == 0 {
				break
			}
			if count >= maxConfigs {
				capped = true
				break
			}
		}
	}
	if !capped {
		for bit, i := range active {
			if outs[i].exact {
				continue
			}
			for val, id := range witnessIDs[bit] {
				outs[i].verdict.Witness[val] = pathTo(nodes, id)
			}
		}
	}
	return !capped, 0, nil
}
