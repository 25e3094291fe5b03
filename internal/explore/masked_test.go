package explore

import (
	"context"
	"errors"
	"slices"
	"testing"

	"repro/internal/consensus"
	"repro/internal/model"
)

// TestReachMaskedSingleCandidateMatchesReach: with one candidate the
// masked search is a plain P-only BFS, so it must agree with a
// single-worker Reach on counts, steps, depth, visit order and every
// witness path. Under a cap only the counts, order and paths compare:
// Reach expands a whole level before merging it, so its Steps and Depth
// describe the level it was cut in.
func TestReachMaskedSingleCandidateMatchesReach(t *testing.T) {
	disk := consensus.DiskRace{}
	diskOpts := Options{Identity: disk, Workers: 1}
	cases := []struct {
		name string
		c    model.Config
		p    []int
		opts Options
	}{
		{"diskrace-n3", model.NewConfig(disk, []model.Value{"0", "1", "1"}), []int{0, 1}, diskOpts},
		{"diskrace-n3-capped", model.NewConfig(disk, []model.Value{"0", "1", "1"}), []int{0, 1, 2}, Options{Identity: disk, Workers: 1, MaxConfigs: 700}},
		{"flood-n3", model.NewConfig(consensus.Flood{}, []model.Value{"0", "1", "0"}), []int{0, 2}, Options{Workers: 1}},
		{"coinflood-n2", model.NewConfig(consensus.CoinFlood{}, []model.Value{"0", "1"}), []int{0, 1}, Options{Workers: 1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var wantOrder []string
			want, err := Reach(context.Background(), tc.c, tc.p, tc.opts, func(v Visit) bool {
				wantOrder = append(wantOrder, keyOf(tc.opts, v.Config))
				return true
			})
			if err != nil && !errors.Is(err, ErrCapped) {
				t.Fatal(err)
			}
			var gotOrder []string
			allowed := make([]uint64, len(tc.p))
			for i := range allowed {
				allowed[i] = 1
			}
			got, err := ReachMasked(context.Background(), tc.c, tc.p, allowed, tc.opts, func(v MaskedVisit) (uint64, error) {
				gotOrder = append(gotOrder, keyOf(tc.opts, v.Config))
				return 1, nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if !want.Capped && (got.Steps != want.Steps || got.Depth != want.Depth) {
				t.Fatalf("masked steps=%d depth=%d, reach steps=%d depth=%d", got.Steps, got.Depth, want.Steps, want.Depth)
			}
			if got.Count != want.Count || got.Capped != want.Capped || len(gotOrder) != got.Count {
				t.Fatalf("masked count=%d capped=%v visits=%d, reach count=%d capped=%v",
					got.Count, got.Capped, len(gotOrder), want.Count, want.Capped)
			}
			if !slices.Equal(gotOrder, wantOrder) {
				t.Fatal("visit orders differ")
			}
			for id := 0; id < got.Count; id++ {
				g, _ := got.PathTo(id)
				w, _ := want.PathTo(id)
				if !slices.Equal(g, w) {
					t.Fatalf("node %d: masked path %v, reach path %v", id, g, w)
				}
			}
			if got.RawHits <= 0 || got.RawHits > got.Steps {
				t.Fatalf("raw hits %d outside (0, steps=%d]", got.RawHits, got.Steps)
			}
		})
	}
}

// TestReachMaskedCandidateSpaces checks the mask semantics on a batch of
// overlapping candidates: every node's path uses only processes of every
// candidate in its mask, and the configurations carrying bit k are exactly
// the candidate's own P-only space. The inputs also force mask upgrades
// (configurations re-reached with new bits), so the test fails if that
// path never fires.
func TestReachMaskedCandidateSpaces(t *testing.T) {
	c := model.NewConfig(consensus.Flood{}, []model.Value{"0", "1", "0"})
	p := []int{0, 1, 2}
	cands := [][]int{{0}, {1}, {2}, {0, 1}, {1, 2}, {0, 2}, {0, 1, 2}}
	allowed := make([]uint64, len(p))
	for bit, cand := range cands {
		for _, pid := range cand {
			allowed[pid] |= 1 << uint(bit)
		}
	}
	opts := Options{Workers: 1}
	all := uint64(1)<<uint(len(cands)) - 1
	spaces := make([]map[string]bool, len(cands))
	for k := range spaces {
		spaces[k] = make(map[string]bool)
	}
	type visited struct {
		id   int
		mask uint64
	}
	var nodes []visited
	res, err := ReachMasked(context.Background(), c, p, allowed, opts, func(v MaskedVisit) (uint64, error) {
		key := keyOf(opts, v.Config)
		for k := range cands {
			if v.Mask&(1<<uint(k)) != 0 {
				spaces[k][key] = true
			}
		}
		nodes = append(nodes, visited{v.ID, v.Mask})
		return all, nil
	})
	if err != nil || res.Capped {
		t.Fatalf("err=%v capped=%v", err, res.Capped)
	}
	if len(nodes) <= res.Count {
		t.Fatalf("%d node visits for %d configs: want mask upgrades (nodes > configs)", len(nodes), res.Count)
	}
	for _, n := range nodes {
		path, ok := res.PathTo(n.id)
		if !ok {
			t.Fatalf("node %d has no path", n.id)
		}
		for k, cand := range cands {
			if n.mask&(1<<uint(k)) == 0 {
				continue
			}
			for _, mv := range path {
				if !slices.Contains(cand, mv.Pid) {
					t.Fatalf("node %d carries candidate %v but its path steps p%d", n.id, cand, mv.Pid)
				}
			}
		}
	}
	for k, cand := range cands {
		want := make(map[string]bool)
		if _, err := Reach(context.Background(), c, cand, opts, func(v Visit) bool {
			want[keyOf(opts, v.Config)] = true
			return true
		}); err != nil {
			t.Fatal(err)
		}
		if len(want) != len(spaces[k]) {
			t.Fatalf("candidate %v: masked space %d configs, P-only space %d", cand, len(spaces[k]), len(want))
		}
		for key := range want {
			if !spaces[k][key] {
				t.Fatalf("candidate %v: P-only config %q never carried its bit", cand, key)
			}
		}
	}
}

// TestReachMaskedLiveMask: the search stops cleanly as soon as the visit
// callback reports no live candidate; a visit error or a cancelled context
// aborts it with that error.
func TestReachMaskedLiveMask(t *testing.T) {
	c := model.NewConfig(consensus.Flood{}, []model.Value{"0", "1", "0"})
	p := []int{0, 1, 2}
	visits := 0
	res, err := ReachMasked(context.Background(), c, p, []uint64{1, 1, 1}, Options{}, func(v MaskedVisit) (uint64, error) {
		visits++
		if visits == 5 {
			return 0, nil
		}
		return 1, nil
	})
	if err != nil || res.Capped || visits != 5 || res.Count > 5 {
		t.Fatalf("err=%v capped=%v visits=%d count=%d, want a clean stop after 5 visits", err, res.Capped, visits, res.Count)
	}
	boom := errors.New("boom")
	if _, err := ReachMasked(context.Background(), c, p, []uint64{1, 1, 1}, Options{}, func(MaskedVisit) (uint64, error) {
		return 0, boom
	}); !errors.Is(err, boom) {
		t.Fatalf("visit error not returned: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := ReachMasked(ctx, c, p, []uint64{1, 1, 1}, Options{}, func(MaskedVisit) (uint64, error) {
		return 1, nil
	}); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled search returned %v", err)
	}
}
