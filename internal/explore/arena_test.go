package explore

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/consensus"
	"repro/internal/model"
)

// TestArenaMatchesLegacyFrontier holds the packed arena engine (packed
// codec, stepper, raw pre-filter, parallel merge) to naiveReach on every
// zoo protocol — DiskRace n=3 and a deep linear chain included: the same
// Count, the same Steps when the space is exhausted, the same key for
// every ID with one worker, and the same key set with a pool. Run under
// -race it also checks the arena path's synchronisation.
func TestArenaMatchesLegacyFrontier(t *testing.T) {
	forcePool(t)
	cases := equivalenceCases()
	cases = append(cases, equivalenceCase{
		name:   "deep-chain",
		config: model.NewConfig(chainMachine{}, []model.Value{"500"}),
		pids:   []int{0},
	})
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want, wantSteps, wantCapped := naiveReach(tc.config, tc.pids, tc.opts)
			if wantCapped != tc.capped {
				t.Fatalf("naive BFS capped=%v, case expects %v", wantCapped, tc.capped)
			}
			for _, workers := range []int{1, 4} {
				opts := tc.opts
				opts.Workers = workers
				var keys []string
				res, err := Reach(context.Background(), tc.config, tc.pids, opts, func(v Visit) bool {
					if v.ID != len(keys) {
						t.Fatalf("visit IDs not sequential: got %d at visit %d", v.ID, len(keys))
					}
					keys = append(keys, keyOf(opts, v.Config))
					return true
				})
				if err != nil && !tc.capped {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				if res.Count != len(want) || len(keys) != len(want) {
					t.Fatalf("workers=%d: Count=%d (%d visits), naive BFS visited %d", workers, res.Count, len(keys), len(want))
				}
				if !tc.capped && res.Steps != wantSteps {
					t.Errorf("workers=%d: Steps=%d, naive BFS %d", workers, res.Steps, wantSteps)
				}
				if workers == 1 {
					// A single worker is fully deterministic: the engine
					// must reproduce the naive visit sequence id for id.
					for id := range keys {
						if keys[id] != want[id] {
							t.Fatalf("id %d key %q, naive BFS %q", id, keys[id], want[id])
						}
					}
					continue
				}
				if tc.capped {
					// Same-level duplicate election races across worker
					// chunks, so a mid-level cap may truncate a different
					// tail; only the count is comparable (checked above).
					continue
				}
				// Representative election may reorder a level, but the
				// visited key set is deterministic.
				got, sorted := slices.Clone(keys), slices.Clone(want)
				slices.Sort(got)
				slices.Sort(sorted)
				if !slices.Equal(got, sorted) {
					t.Fatalf("workers=%d: visited key set differs from naive BFS", workers)
				}
			}
		})
	}
}

// TestArenaPathsReplay: witness paths recorded by the packed path must
// replay to configurations with the recorded canonical keys (covering the
// via/parent bookkeeping in the arena merge).
func TestArenaPathsReplay(t *testing.T) {
	forcePool(t)
	disk := consensus.DiskRace{}
	c := model.NewConfig(disk, []model.Value{"0", "1", "1"})
	opts := Options{Identity: disk, MaxConfigs: 4000, Workers: 4}
	var keys []string
	res, err := Reach(context.Background(), c, []int{0, 1, 2}, opts, func(v Visit) bool {
		keys = append(keys, keyOf(opts, v.Config))
		return true
	})
	if err != nil && !errors.Is(err, ErrCapped) {
		t.Fatal(err)
	}
	for id, key := range keys {
		path, ok := res.PathTo(id)
		if !ok {
			t.Fatalf("PathTo(%d) failed", id)
		}
		if got := keyOf(opts, model.RunPath(c, path)); got != key {
			t.Fatalf("replay of id %d lands on %q, visited %q", id, got, key)
		}
	}
}

// TestArenaSpillMatchesLegacySpill drives the engine through the spill
// path (budget 1 spills every batch) and demands naiveReach's visit
// sequence: the packed spill chunks must round-trip through disk without
// reordering or losing an entry.
func TestArenaSpillMatchesLegacySpill(t *testing.T) {
	c := model.NewConfig(chainMachine{}, []model.Value{"4", "4"})
	p := []int{0, 1}
	opts := Options{Workers: 1, SpillDir: t.TempDir(), SpillBudget: 1}
	var keys []string
	if _, err := Reach(context.Background(), c, p, opts, func(v Visit) bool {
		keys = append(keys, keyOf(opts, v.Config))
		return true
	}); err != nil {
		t.Fatal(err)
	}
	want, _, _ := naiveReach(c, p, opts)
	if !slices.Equal(keys, want) {
		t.Fatalf("spilled visit sequence %q, naive BFS %q", keys, want)
	}
}

// TestMixWordsDistinctness hammers the packed-record hash with structured
// near-identical inputs (the regime raw pre-dedup lives in: records
// differing in a couple of dictionary ids) and demands zero collisions.
func TestMixWordsDistinctness(t *testing.T) {
	seen := make(map[Fingerprint][]uint64, 400000)
	check := func(ws []uint64) {
		fp := MixWords(ws)
		if prev, ok := seen[fp]; ok {
			t.Fatalf("MixWords collision between %v and %v", prev, ws)
		}
		seen[fp] = append([]uint64{}, ws...)
	}
	for i := uint64(0); i < 500; i++ {
		for j := uint64(0); j < 500; j++ {
			check([]uint64{i, j<<32 | i})
		}
	}
	// Length must be part of the digest: a record extended by a zero word
	// encodes a different configuration shape.
	check([]uint64{1, 2, 0})
	check([]uint64{1, 2, 0, 0})
	check([]uint64{0})
	check([]uint64{})
}

// fingerprintFNV128 is the retired FNV-1a digest, kept as an independent
// reference implementation: the migration tests run it alongside mix128
// over the same key populations and require both to be injective, so a
// defect in the new mix cannot hide behind its own output.
func fingerprintFNV128(key string) Fingerprint {
	h := fnv.New128a()
	_, _ = h.Write([]byte(key))
	var sum [16]byte
	h.Sum(sum[:0])
	var fp Fingerprint
	for i := 0; i < 8; i++ {
		fp[0] = fp[0]<<8 | uint64(sum[i])
		fp[1] = fp[1]<<8 | uint64(sum[8+i])
	}
	return fp
}

// TestFNVReferenceFingerprintDistinctness keeps the retired FNV-128
// reference honest (it remains the cross-check implementation for the
// wyhash-style mixer): same structured-key sweep, zero collisions.
func TestFNVReferenceFingerprintDistinctness(t *testing.T) {
	seen := make(map[Fingerprint]string, 100000)
	for i := 0; i < 100000; i++ {
		key := fmt.Sprintf("D%d|cfg|%d", i%7, i)
		fp := fingerprintFNV128(key)
		if prev, ok := seen[fp]; ok {
			t.Fatalf("FNV collision between %q and %q", prev, key)
		}
		seen[fp] = key
	}
}

// TestFPSetOpenAddressing covers the open-addressed visited set directly:
// duplicate rejection, the out-of-band zero fingerprint, growth across the
// 128-slot floor, Len accounting, and dump completeness — for both the
// striped and the lock-free single-goroutine variants.
func TestFPSetOpenAddressing(t *testing.T) {
	for _, tc := range []struct {
		name string
		mk   func() *fpSet
	}{
		{"locked", newFPSet},
		{"local", newFPSetLocal},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := tc.mk()
			rng := rand.New(rand.NewSource(42))
			const n = 50000
			want := make(map[Fingerprint]bool, n+1)
			want[Fingerprint{}] = true
			if !s.Add(Fingerprint{}) {
				t.Fatal("zero fingerprint rejected on first insert")
			}
			if s.Add(Fingerprint{}) {
				t.Fatal("zero fingerprint accepted twice")
			}
			for len(want) < n+1 {
				fp := Fingerprint{rng.Uint64(), rng.Uint64()}
				if want[fp] {
					continue
				}
				want[fp] = true
				if !s.Add(fp) {
					t.Fatalf("fresh fingerprint %x rejected", fp)
				}
				if s.Add(fp) {
					t.Fatalf("duplicate fingerprint %x accepted", fp)
				}
			}
			if s.Len() != n+1 {
				t.Fatalf("Len = %d, want %d", s.Len(), n+1)
			}
			got := s.dump()
			if len(got) != n+1 {
				t.Fatalf("dump returned %d fingerprints, want %d", len(got), n+1)
			}
			for _, fp := range got {
				if !want[fp] {
					t.Fatalf("dump invented fingerprint %x", fp)
				}
				delete(want, fp)
			}
			if len(want) != 0 {
				t.Fatalf("dump lost %d fingerprints", len(want))
			}
		})
	}
}

// TestFPSetConcurrentAdds races many goroutines over one striped set: each
// fingerprint must be won exactly once however the Adds interleave.
func TestFPSetConcurrentAdds(t *testing.T) {
	s := newFPSet()
	const (
		goroutines = 8
		perG       = 20000
	)
	wins := make(chan int, goroutines)
	for g := 0; g < goroutines; g++ {
		go func() {
			won := 0
			for i := 0; i < perG; i++ {
				// All goroutines insert the same universe of fingerprints.
				fp := MixWords([]uint64{uint64(i), uint64(i) * 3})
				if s.Add(fp) {
					won++
				}
			}
			wins <- won
		}()
	}
	total := 0
	for g := 0; g < goroutines; g++ {
		total += <-wins
	}
	if total != perG {
		t.Fatalf("distinct fingerprints won %d times total, want exactly %d", total, perG)
	}
	if s.Len() != perG {
		t.Fatalf("Len = %d, want %d", s.Len(), perG)
	}
}

// TestFingerprinterAllocFree fences both state identities: once warm, a
// Fingerprinter digests a configuration without allocating — the DiskRace
// canonicaliser (pooled scratch, appended into the hasher's buffer) on a
// reachable n=4 configuration, and Config.AppendKey on a flood n=3 one —
// and digests the same configuration's packed record to the same
// fingerprint, also without allocating: through the DiskRace packed keyer,
// and for flood (exact identity) through the unpack fallback.
func TestFingerprinterAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation inflates alloc counts and drops sync.Pool entries; the fence is a production bound")
	}
	disk := consensus.DiskRace{}
	for _, tc := range []struct {
		name  string
		c     model.Config
		opts  Options
		depth int
	}{
		{"diskrace-n4-canonical", model.NewConfig(disk, []model.Value{"0", "1", "1", "0"}), Options{Identity: disk}, 14},
		{"flood-n3", model.NewConfig(consensus.Flood{}, []model.Value{"0", "1", "1"}), Options{}, 10},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// The deepest configuration a capped search reaches: mid-protocol
			// states, written registers and (for DiskRace) raised ballots.
			var deep model.Config
			opts := tc.opts
			opts.MaxDepth = tc.depth
			opts.Workers = 1
			if _, err := Reach(context.Background(), tc.c, []int{0, 1, 2, 3}[:tc.c.NumProcesses()], opts, func(v Visit) bool {
				deep = v.Config.Clone()
				return true
			}); err != nil && !errors.Is(err, ErrCapped) {
				t.Fatal(err)
			}
			fpr := tc.opts.NewFingerprinter()
			want := fpr.Fingerprint(deep)
			var got Fingerprint
			if allocs := testing.AllocsPerRun(100, func() { got = fpr.Fingerprint(deep) }); allocs != 0 {
				t.Fatalf("Fingerprint allocates %.1f per call, want 0", allocs)
			}
			if got != want {
				t.Fatalf("warm fingerprint %x differs from the first %x", got, want)
			}

			codec := model.NewPackedCodec(deep)
			rec, err := codec.Pack(deep)
			if err != nil {
				t.Fatal(err)
			}
			if got = fpr.FingerprintPacked(codec, rec); got != want {
				t.Fatalf("packed fingerprint %x differs from the Config one %x", got, want)
			}
			if allocs := testing.AllocsPerRun(100, func() { got = fpr.FingerprintPacked(codec, rec) }); allocs != 0 {
				t.Fatalf("FingerprintPacked allocates %.1f per call, want 0", allocs)
			}
			if got != want {
				t.Fatalf("warm packed fingerprint %x differs from the Config one %x", got, want)
			}
		})
	}
}
