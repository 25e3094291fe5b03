package dist

import (
	"bytes"
	"slices"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/explore"
	"repro/internal/model"
)

// oracleExpand is the Config-level expansion shard workers ran before they
// moved onto explore's packed engine, kept as the differential oracle for
// expander.expandLevel: replay each entry's path from the root with
// model.ApplyMove, enumerate with explore.AppendMoves, apply every move and
// ship every child — no pre-filter — bucketed by destination slice.
func oracleExpand(run *Run, frontier []Entry) ([][]Entry, int64) {
	fpr := run.Opts.NewFingerprinter()
	out := make([][]Entry, run.Spec.Slices)
	var steps int64
	for _, e := range frontier {
		cfg := run.Root
		for _, mv := range e.Path {
			cfg = model.ApplyMove(cfg, model.UnpackMove(mv))
		}
		for _, mv := range explore.AppendMoves(nil, cfg, run.Procs) {
			child := model.ApplyMove(cfg, mv)
			steps++
			fp := fpr.Fingerprint(child)
			packed, err := model.PackMove(mv)
			if err != nil {
				panic(err)
			}
			dest := explore.ShardOf(fp, run.Spec.Slices)
			out[dest] = append(out[dest], Entry{FP: fp, Path: append(slices.Clone(e.Path), packed)})
		}
	}
	return out, steps
}

// firstOccurrences keeps the first entry of each fingerprint, in order —
// what a receiver's ingest keeps of a chunk.
func firstOccurrences(entries []Entry) []Entry {
	seen := make(map[explore.Fingerprint]bool)
	var out []Entry
	for _, e := range entries {
		if !seen[e.FP] {
			seen[e.FP] = true
			out = append(out, e)
		}
	}
	return out
}

func sameEntries(a, b []Entry) bool {
	return slices.EqualFunc(a, b, func(x, y Entry) bool {
		return x.FP == y.FP && slices.Equal(x.Path, y.Path)
	})
}

// levelFrontiers runs the distributed BFS in process, without a
// coordinator: each level, every slice's frontier is expanded by expand
// and the next frontiers are ingested from the buckets in from-slice
// order, first occurrence winning, as Worker.ingestChunks does. visit sees
// every (level, slice, frontier) before it is expanded.
func levelFrontiers(t *testing.T, run *Run, expand func(level, s int, frontier []Entry) [][]Entry, visit func(level, s int, frontier []Entry)) {
	t.Helper()
	fpr := run.Opts.NewFingerprinter()
	rootFP := fpr.Fingerprint(run.Root)
	frontiers := make([][]Entry, run.Spec.Slices)
	frontiers[explore.ShardOf(rootFP, run.Spec.Slices)] = []Entry{{FP: rootFP}}
	visited := map[explore.Fingerprint]bool{rootFP: true}
	for level := 0; level < run.Spec.MaxDepth; level++ {
		next := make([][]Entry, run.Spec.Slices)
		for s, frontier := range frontiers {
			visit(level, s, frontier)
			for d, entries := range expand(level, s, frontier) {
				for _, e := range entries {
					if !visited[e.FP] {
						visited[e.FP] = true
						next[d] = append(next[d], e)
					}
				}
			}
		}
		frontiers = next
	}
}

// TestExpandLevelMatchesConfigOracle: at every level of DiskRace n=3 to
// depth 12, for every slice, the packed expansion — one worker-lifetime
// expander, memoised replay, the raw pre-filter — ships, to every
// destination, the same entries as the Config-level oracle once each list
// is cut to first occurrences, and counts the same steps. The pre-filter
// must have screened something, or the test proves nothing about it.
func TestExpandLevelMatchesConfigOracle(t *testing.T) {
	run, err := NewRun(core.ProtocolDiskRace, 3, 3, 12, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	x, err := newExpander(run.Root, run.Procs, run.Opts)
	if err != nil {
		t.Fatal(err)
	}
	screened := 0
	levelFrontiers(t, run, func(level, s int, frontier []Entry) [][]Entry {
		got, steps, err := x.expandLevel(frontier, run.Spec.Slices, nil)
		if err != nil {
			t.Fatal(err)
		}
		want, wantSteps := oracleExpand(run, frontier)
		if steps != wantSteps {
			t.Fatalf("level %d slice %d: %d steps, oracle %d", level, s, steps, wantSteps)
		}
		for d := range want {
			if !sameEntries(firstOccurrences(got[d]), firstOccurrences(want[d])) {
				t.Fatalf("level %d slice %d -> %d: first occurrences differ from the oracle", level, s, d)
			}
			screened += len(want[d]) - len(got[d])
		}
		return got
	}, func(int, int, []Entry) {})
	if screened == 0 {
		t.Fatal("the raw pre-filter screened no child in 12 levels")
	}
}

// TestExpandLevelBytesIndependentOfInterning: a chunk's bytes are a
// function of the frontier alone. Each (slice, level) is expanded twice:
// by a fresh worker, and by one that has expanded every level before it
// and whose codec first interned the deepest frontier, last entry first —
// so the two codecs' packed records differ. The chunks must be
// byte-identical: this is what lets a regranted slice's redo repost the
// bytes the lost owner already posted.
func TestExpandLevelBytesIndependentOfInterning(t *testing.T) {
	run, err := NewRun(core.ProtocolDiskRace, 3, 3, 9, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	newX := func() *expander {
		x, err := newExpander(run.Root, run.Procs, run.Opts)
		if err != nil {
			t.Fatal(err)
		}
		return x
	}
	type job struct {
		level, s int
		frontier []Entry
	}
	var jobs []job
	x := newX()
	levelFrontiers(t, run, func(level, s int, frontier []Entry) [][]Entry {
		out, _, err := x.expandLevel(frontier, run.Spec.Slices, nil)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}, func(level, s int, frontier []Entry) {
		if len(frontier) > 0 {
			jobs = append(jobs, job{level, s, frontier})
		}
	})

	warmed := newX()
	last := jobs[len(jobs)-1]
	for i := len(last.frontier) - 1; i >= 0; i-- {
		if _, err := warmed.replay(last.frontier[i].Path); err != nil {
			t.Fatal(err)
		}
	}
	target := jobs[len(jobs)/2].frontier[0].Path
	a, err := newX().replay(target)
	if err != nil {
		t.Fatal(err)
	}
	b, err := warmed.replay(target)
	if err != nil {
		t.Fatal(err)
	}
	if slices.Equal(a, b) {
		t.Fatal("both codecs packed the same record: the interning orders did not diverge")
	}

	for _, j := range jobs {
		outA, stepsA, err := newX().expandLevel(j.frontier, run.Spec.Slices, nil)
		if err != nil {
			t.Fatal(err)
		}
		outB, stepsB, err := warmed.expandLevel(j.frontier, run.Spec.Slices, nil)
		if err != nil {
			t.Fatal(err)
		}
		if stepsA != stepsB {
			t.Fatalf("level %d slice %d: steps %d vs %d", j.level, j.s, stepsA, stepsB)
		}
		for d := range outA {
			ca, err := EncodeFrontierChunk(j.level, j.s, d, outA[d])
			if err != nil {
				t.Fatal(err)
			}
			cb, err := EncodeFrontierChunk(j.level, j.s, d, outB[d])
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(ca, cb) {
				t.Fatalf("level %d slice %d -> %d: chunk bytes depend on what the worker did before", j.level, j.s, d)
			}
		}
	}
}

// TestReplayRejectsImpossibleMoves: a path naming a process the run does
// not have, or stepping a process that has decided, fails typed — paths
// come from other processes — and leaves the replay memo usable.
func TestReplayRejectsImpossibleMoves(t *testing.T) {
	run, err := NewRun(core.ProtocolDiskRace, 2, 1, 0, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	x, err := newExpander(run.Root, run.Procs, run.Opts)
	if err != nil {
		t.Fatal(err)
	}
	move := func(pid int) uint32 {
		u, err := model.PackMove(model.Move{Pid: pid})
		if err != nil {
			t.Fatal(err)
		}
		return u
	}
	if _, err := x.replay([]uint32{move(0), move(7)}); err == nil {
		t.Fatal("replayed a move of process 7 in a 2-process run")
	}
	// Run process 0 solo until it decides, then step it once more.
	var solo []uint32
	cfg := run.Root
	for k, _ := model.PeekOp(cfg.State(0)); k != model.OpDecide; k, _ = model.PeekOp(cfg.State(0)) {
		cfg = model.ApplyMove(cfg, model.Move{Pid: 0})
		solo = append(solo, move(0))
	}
	if _, err := x.replay(append(slices.Clone(solo), move(0))); err == nil {
		t.Fatal("replayed a step of a decided process")
	}
	rec, err := x.replay(solo)
	if err != nil {
		t.Fatal(err)
	}
	want, err := x.codec.Pack(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(rec, want) {
		t.Fatal("replay after a rejected path returned the wrong record")
	}
}
