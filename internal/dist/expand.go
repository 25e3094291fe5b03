package dist

import (
	"fmt"

	"repro/internal/explore"
	"repro/internal/model"
)

// expander is a shard worker's transition engine, built once per
// Worker.Run on the same packed pieces as explore.Reach: a
// model.PackedCodec and one memoising model.PackedStepper over the run's
// root, explore.MixWords for the raw pre-filter, and the run's
// explore.Fingerprinter for identity. Packed records and their dictionary
// ids never leave the process — ids are interned in arrival order, so they
// differ between workers — and configurations cross processes only as
// witness paths (Entry). Not safe for concurrent use.
type expander struct {
	codec   *model.PackedCodec
	stepper *model.PackedStepper
	fpr     *explore.Fingerprinter
	procs   []int
	stride  int

	// path and recs memoise the last replay: recs holds, stride words
	// each, the record after every prefix of path, the root's first.
	// Entries arrive grouped by parent, so consecutive paths share all but
	// their last few moves and a replay resumes from the longest shared
	// prefix.
	path []uint32
	recs []uint64

	child []uint64
	moves []model.Move
	// raw holds the MixWords digests of the child records produced by the
	// current expandLevel call.
	raw map[explore.Fingerprint]struct{}
}

func newExpander(root model.Config, procs []int, opts explore.Options) (*expander, error) {
	codec := model.NewPackedCodec(root)
	x := &expander{
		codec:   codec,
		stepper: codec.NewStepper(),
		fpr:     opts.NewFingerprinter(),
		procs:   procs,
		stride:  codec.Words(),
		child:   make([]uint64, codec.Words()),
		raw:     make(map[explore.Fingerprint]struct{}),
	}
	x.recs = make([]uint64, x.stride)
	if err := codec.PackTo(x.recs, root); err != nil {
		return nil, fmt.Errorf("dist: pack root: %w", err)
	}
	return x, nil
}

// replay returns the packed record of the configuration that path reaches
// from the root, stepping only the moves past the prefix it shares with
// the previous replay. The record aliases the memo: it is valid until the
// next replay. A move no enumerator could have produced — an unknown
// process, or one that has decided — is an error, not a panic: paths come
// from other processes.
func (x *expander) replay(path []uint32) ([]uint64, error) {
	k := 0
	for k < len(path) && k < len(x.path) && path[k] == x.path[k] {
		k++
	}
	x.path = append(x.path[:k], path[k:]...)
	x.recs = x.recs[:(k+1)*x.stride]
	for d := k; d < len(path); d++ {
		mv := model.UnpackMove(path[d])
		n := len(x.recs)
		src := x.recs[n-x.stride:]
		if mv.Pid >= x.codec.NumProcesses() {
			x.path = x.path[:d]
			return nil, fmt.Errorf("dist: path move %d: no process %d", d, mv.Pid)
		}
		switch kind, _ := x.stepper.Op(x.codec.StateID(src, mv.Pid)); kind {
		case model.OpDecide:
			x.path = x.path[:d]
			return nil, fmt.Errorf("dist: path move %d steps decided process %d", d, mv.Pid)
		case model.OpCoin:
			if mv.Coin == model.Bottom {
				mv.Coin = "0" // an outcome-less coin move reads as "0", as in Config replay
			}
		}
		x.recs = append(x.recs, src...)
		if err := x.stepper.StepPacked(x.recs[n:], x.recs[n-x.stride:n], mv.Pid, mv.Coin); err != nil {
			x.path, x.recs = x.path[:d], x.recs[:n]
			return nil, fmt.Errorf("dist: path move %d: %w", d, err)
		}
	}
	return x.recs[len(x.recs)-x.stride:], nil
}

// expandLevel expands a slice's frontier for one level: it replays every
// entry, steps each move AppendPackedMoves enumerates on the packed record,
// and buckets the children by destination slice, each with its canonical
// fingerprint and its parent's path plus the move. It returns the buckets
// and the transitions stepped. beat, when non-nil, runs after every entry
// (the worker renews its lease there); its error aborts the level.
//
// A child whose exact record this call already produced is counted in
// steps but not shipped again: equal records are equal configurations, so
// its canonical fingerprint is the earlier twin's, which is already in the
// bucket ahead of it — every receiver keeps the first occurrence of each
// fingerprint, so its frontier is unchanged. The filter lives for one
// call, so the buckets are a function of the frontier alone, whatever this
// process expanded before; a regranted redo of the level ships the same
// bytes.
func (x *expander) expandLevel(frontier []Entry, numSlices int, beat func() error) ([][]Entry, int64, error) {
	clear(x.raw)
	outgoing := make([][]Entry, numSlices)
	var steps int64
	// Child paths are carved from a per-level slab instead of one
	// allocation per child: they live only until their chunk is encoded.
	var slab []uint32
	for i := range frontier {
		e := &frontier[i]
		rec, err := x.replay(e.Path)
		if err != nil {
			return nil, 0, err
		}
		x.moves = explore.AppendPackedMoves(x.moves[:0], x.codec, x.stepper, rec, x.procs)
		for _, mv := range x.moves {
			steps++
			if err := x.stepper.StepPacked(x.child, rec, mv.Pid, mv.Coin); err != nil {
				return nil, 0, err
			}
			rfp := explore.MixWords(x.child)
			if _, dup := x.raw[rfp]; dup {
				continue
			}
			x.raw[rfp] = struct{}{}
			fp := x.fpr.FingerprintPacked(x.codec, x.child)
			packed, err := model.PackMove(mv)
			if err != nil {
				return nil, 0, err
			}
			n := len(e.Path) + 1
			if cap(slab)-len(slab) < n {
				// First block: one move per process per entry; later
				// blocks double.
				slab = make([]uint32, 0, max(len(frontier)*len(x.procs)*n, 2*cap(slab)))
			}
			path := slab[len(slab) : len(slab)+n : len(slab)+n]
			slab = slab[:len(slab)+n]
			copy(path, e.Path)
			path[len(e.Path)] = packed
			dest := explore.ShardOf(fp, numSlices)
			outgoing[dest] = append(outgoing[dest], Entry{FP: fp, Path: path})
		}
		if beat != nil {
			if err := beat(); err != nil {
				return nil, 0, err
			}
		}
	}
	return outgoing, steps, nil
}
