package explore

import (
	"context"
	"fmt"

	"repro/internal/model"
)

// The masked reach: one BFS over the union of several overlapping P-only
// spaces, in which every node carries a bitmask of the "candidates" its
// witness path is valid for. Caller-assigned bit k stands for some process
// set; a step by process q keeps only the bits whose sets contain q, so a
// set bit k on a node proves that the node's path is a candidate-k-only
// execution. The valency oracle's batched Lemma 1 probe is the client: it
// explores the shared space of n candidate sets once instead of n times.
//
// The search is sequential and FIFO, and its order is part of the
// contract: nodes are dequeued in insertion order, each parent's mask is
// read once before its moves, and moves follow p's order with coin "0"
// before "1" (AppendMoves's order, which AppendPackedMoves reproduces). A
// configuration is re-inserted as a new node when it is re-reached with
// candidate bits it has not carried before (a mask upgrade); the new node
// carries only the reaching path's mask. Counts, cap points and witness paths are therefore a pure function
// of the inputs.
//
// It runs on the packed engine's pieces: a per-search PackedCodec, one
// memoising PackedStepper with moves enumerated from interned state ids,
// and a flat arena of packed records (one per node) instead of retained
// configurations. Canonical identity is the same fingerprint Reach uses,
// mapped to the union of the masks inserted under it (seen). A pre-filter
// keyed by the hash of the packed record itself (raw) screens transitions
// before the canonical key is built: raw[rec] is only ever assigned
// seen's value for rec's canonical class, so raw[rec] ⊆ seen[canon(rec)]
// holds throughout, and a transition whose mask lies inside raw[rec] lies
// inside seen too — exactly the transitions the canonical check would
// skip anyway.

// MaskedVisit is one node of a masked search, handed to the visit
// callback. Config is valid only during the callback; ID is stable.
type MaskedVisit struct {
	Config model.Config
	ID     int
	Depth  int
	// Mask is the candidate mask of the path that reached this node (the
	// root carries every bit of the search).
	Mask uint64

	res *Result
}

// PathTo reconstructs the path to any node inserted so far, this one
// included, so a callback can materialise witnesses mid-search.
func (v MaskedVisit) PathTo(id int) (model.Path, bool) {
	return v.res.PathTo(id)
}

// MaskedResult is the outcome of ReachMasked. Count is the number of
// distinct canonical configurations visited (nodes exceed it by the mask
// upgrades) and Steps the transitions stepped; PathTo takes node IDs.
type MaskedResult struct {
	Result
	// RawHits counts transitions the packed-record pre-filter screened out
	// before their canonical fingerprint was computed (a subset of Steps).
	RawHits int
}

// ReachMasked explores the union of the P-only spaces of up to 64
// candidates from c. p lists the union's processes in move order and
// allowed[i] is the set of candidate bits whose process sets contain
// p[i]; the root carries the union of allowed.
//
// visit is called once per node, in insertion order, and returns the
// candidate bits still live: a parent's mask is intersected with them
// before its moves, and the search stops as soon as none remain. A visit
// error aborts the search and is returned as is.
//
// Of opts only MaxConfigs and the state identity (Identity) apply: the
// search is capped — Capped set, no error — once Count reaches MaxConfigs,
// checked after every insertion and before every dequeue. ctx
// cancellation returns an error wrapping ctx.Err(). The result is never
// nil: on error it holds the partial search.
func ReachMasked(ctx context.Context, c model.Config, p []int, allowed []uint64, opts Options, visit func(MaskedVisit) (uint64, error)) (*MaskedResult, error) {
	if len(allowed) != len(p) {
		return &MaskedResult{}, fmt.Errorf("masked reach: %d masks for %d processes", len(allowed), len(p))
	}
	var all uint64
	for _, m := range allowed {
		all |= m
	}
	maxConfigs := opts.maxConfigs()
	codec := model.NewPackedCodec(c)
	stride := codec.Words()
	ws := new(workerScratch)
	ws.initPacked(codec)

	res := &MaskedResult{}
	arena := make([]uint64, stride)
	if err := codec.PackTo(arena, c); err != nil {
		return res, fmt.Errorf("masked reach root: %w", err)
	}
	masks := []uint64{all}
	seen := map[Fingerprint]uint64{ws.fingerprint(&opts, c): all}
	raw := map[Fingerprint]uint64{}
	res.nodes = append(res.nodes, node{parent: 0})
	res.Count = 1

	live, err := visit(MaskedVisit{Config: c, Mask: all, res: &res.Result})
	if err != nil {
		return res, err
	}
	for lo := 0; lo < len(res.nodes) && live != 0; lo++ {
		if err := ctx.Err(); err != nil {
			return res, fmt.Errorf("masked reach after %d configs: %w", res.Count, err)
		}
		if res.Count >= maxConfigs {
			res.Capped = true
			return res, nil
		}
		mask := masks[lo] & live
		if mask == 0 {
			continue
		}
		// Appending children may move the arena; the parent's record is
		// read from the backing array current at dequeue, which appends
		// never modify.
		rec := arena[lo*stride : (lo+1)*stride]
		depth := res.nodes[lo].depth + 1
		for i := range p {
			childMask := mask & allowed[i]
			if childMask == 0 {
				continue
			}
			ws.moves = AppendPackedMoves(ws.moves[:0], codec, ws.stepper, rec, p[i:i+1])
			for _, mv := range ws.moves {
				res.Steps++
				if err := ws.stepper.StepPacked(ws.childWords, rec, mv.Pid, mv.Coin); err != nil {
					return res, fmt.Errorf("masked reach step: %w", err)
				}
				rfp := MixWords(ws.childWords)
				if childMask&^raw[rfp] == 0 {
					res.RawHits++
					continue
				}
				fp := ws.fingerprintPacked(&opts, codec, ws.childWords)
				prev := seen[fp]
				raw[rfp] = prev | childMask
				if childMask&^prev == 0 {
					continue
				}
				seen[fp] = prev | childMask
				if prev == 0 {
					res.Count++
				}
				via, err := model.PackMove(mv)
				if err != nil {
					return res, fmt.Errorf("masked reach move: %w", err)
				}
				child, err := ws.unpack(codec, ws.childWords)
				if err != nil {
					return res, fmt.Errorf("masked reach unpack: %w", err)
				}
				id := len(res.nodes)
				res.nodes = append(res.nodes, node{parent: int32(lo), depth: depth, via: via})
				masks = append(masks, childMask)
				arena = append(arena, ws.childWords...)
				res.Depth = max(res.Depth, int(depth))
				live, err = visit(MaskedVisit{Config: child, ID: id, Depth: int(depth), Mask: childMask, res: &res.Result})
				if err != nil {
					return res, err
				}
				if live == 0 {
					return res, nil
				}
				if res.Count >= maxConfigs {
					res.Capped = true
					return res, nil
				}
			}
		}
	}
	return res, nil
}
