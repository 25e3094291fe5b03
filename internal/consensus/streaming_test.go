package consensus

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/explore"
	"repro/internal/model"
)

// walkDiskRace enumerates reachable DiskRace configurations (bounded) and
// hands each to check.
func walkDiskRace(t *testing.T, n int, limit int, check func(model.Config)) {
	t.Helper()
	inputs := make([]model.Value, n)
	for i := range inputs {
		inputs[i] = "1"
	}
	inputs[0] = "0"
	c := model.NewConfig(DiskRace{}, inputs)
	pids := make([]int, n)
	for i := range pids {
		pids[i] = i
	}
	opts := explore.Options{Identity: DiskRace{}, MaxConfigs: limit}
	seen := 0
	_, err := explore.Reach(context.Background(), c, pids, opts, func(v explore.Visit) bool {
		check(v.Config)
		seen++
		return true
	})
	if err != nil && seen < limit-1 {
		t.Fatal(err)
	}
}

// CanonicalKey is the string reference form of AppendCanonicalKey, built
// from whole decoded structures with a strings.Builder. It is the oracle
// the append form is held to byte for byte.
func (DiskRace) CanonicalKey(c model.Config) string {
	// Collect the rounds present. A configuration of n processes holds at
	// most 4n state rounds and 2n register rounds.
	n := c.NumProcesses()
	rounds := make([]int, 0, 6*n)
	states := make([]diskState, n)
	blocks := make([]diskBlock, c.NumRegisters())
	for pid := 0; pid < n; pid++ {
		s, ok := c.State(pid).(diskState)
		if !ok {
			// Not a DiskRace configuration; fall back to exact keys.
			return c.Key()
		}
		states[pid] = s
		rounds = append(rounds, s.ballot.K, s.ownBal.K, s.maxK, s.maxBal.K)
	}
	for r := 0; r < c.NumRegisters(); r++ {
		blocks[r] = decodeBlock(c.Register(r))
		rounds = append(rounds, blocks[r].Mbal.K, blocks[r].Bal.K)
	}
	remap := buildRoundRemap(rounds)

	var b strings.Builder
	b.Grow(32 * n)
	for pid := range states {
		states[pid].writeCanonicalKey(&b, remap)
		b.WriteByte('\x1f')
	}
	b.WriteByte('\x1e')
	for r := range blocks {
		block := blocks[r]
		block.Mbal.K = remap.apply(block.Mbal.K)
		block.Bal.K = remap.apply(block.Bal.K)
		b.WriteString(string(block.encode()))
		b.WriteByte('\x1f')
	}
	return b.String()
}

// buildRoundRemap is the reference form of the sort-free remap the hot
// path builds with insertRound and buildRoundRemapInto: sort a copy of the
// (unsorted, duplicate-bearing) rounds, drop duplicates and round 0, then
// renumber with the smallest positive round anchored at 1 and every gap
// capped at 2.
func buildRoundRemap(rounds []int) roundRemap {
	sorted := slices.Clone(rounds)
	slices.Sort(sorted)
	sorted = slices.Compact(sorted)
	if len(sorted) > 0 && sorted[0] == 0 {
		sorted = sorted[1:]
	}
	m := roundRemap{from: sorted}
	prev, mapped := 0, 0
	for _, k := range sorted {
		if prev == 0 {
			mapped = 1
		} else {
			mapped += min(k-prev, 2)
		}
		m.to = append(m.to, mapped)
		prev = k
	}
	return m
}

// writeCanonicalKey is the reference form of diskState.appendCanonicalKey.
func (s diskState) writeCanonicalKey(b *strings.Builder, remap roundRemap) {
	writeBallot := func(bal Ballot) {
		b.WriteString(strconv.Itoa(remap.apply(bal.K)))
		b.WriteByte('.')
		b.WriteString(strconv.Itoa(bal.Pid))
	}
	b.WriteByte('D')
	b.WriteString(strconv.Itoa(s.pid))
	b.WriteByte('|')
	b.WriteString(string(s.input))
	b.WriteByte('|')
	writeBallot(s.ballot)
	b.WriteByte('|')
	b.WriteString(strconv.Itoa(int(s.phase)))
	b.WriteByte('|')
	b.WriteString(strconv.Itoa(s.idx))
	b.WriteByte('|')
	writeBallot(s.ownBal)
	b.WriteByte('|')
	b.WriteString(string(s.ownInp))
	b.WriteByte('|')
	b.WriteString(string(s.proposal))
	b.WriteByte('|')
	b.WriteString(strconv.Itoa(remap.apply(s.maxK)))
	if s.aborting {
		b.WriteByte('!')
	}
	b.WriteByte('|')
	writeBallot(s.maxBal)
	b.WriteByte('|')
	b.WriteString(string(s.balInp))
}

// refKey is the Sprintf reference form of diskState.AppendKey.
func (s diskState) refKey() string {
	return fmt.Sprintf("D%d|%d|%s|%v|%d|%d|%v|%s|%s|%d.%t|%v|%s",
		s.n, s.pid, string(s.input), s.ballot, s.phase, s.idx,
		s.ownBal, string(s.ownInp), string(s.proposal),
		s.maxK, s.aborting, s.maxBal, string(s.balInp))
}

// refKey is the Sprintf reference form of floodState.AppendKey.
func (s floodState) refKey() string {
	confirm := byte('n')
	if s.confirming {
		confirm = 'y'
	}
	return fmt.Sprintf("%s%d|%s|%d|%d|%c|%s",
		s.rules.name, s.n, string(s.pref), s.phase, s.idx, confirm, s.seen)
}

// TestCanonicalKeyToMatchesCanonicalKey holds the append-form
// canonicaliser to its string reference byte for byte across reachable
// configurations, appending into one reused buffer: this equality is what
// makes the exploration engine's fingerprint dedup sound when it hashes via
// TestSortFreeRoundRemap holds the hot path's remap — rounds inserted one
// by one into a sorted distinct list, then renumbered — to the sort-based
// reference on random round lists with zeros, duplicates and wide gaps,
// reusing the hot path's buffers across cases as AppendCanonicalKey does.
func TestSortFreeRoundRemap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var rounds, to []int
	for trial := 0; trial < 2000; trial++ {
		in := make([]int, rng.Intn(25))
		for i := range in {
			in[i] = rng.Intn(12)
			if rng.Intn(8) == 0 {
				in[i] = rng.Intn(1 << 20)
			}
		}
		rounds = rounds[:0]
		for _, k := range in {
			rounds = insertRound(rounds, k)
		}
		got := buildRoundRemapInto(rounds, to)
		to = got.to
		want := buildRoundRemap(in)
		if !slices.Equal(got.from, want.from) || !slices.Equal(got.to, want.to) {
			t.Fatalf("rounds %v: remap %v -> %v, want %v -> %v", in, got.from, got.to, want.from, want.to)
		}
	}
}

// AppendCanonicalKey.
func TestCanonicalKeyToMatchesCanonicalKey(t *testing.T) {
	for _, n := range []int{2, 3} {
		var buf []byte
		walkDiskRace(t, n, 20000, func(c model.Config) {
			buf = DiskRace{}.AppendCanonicalKey(buf[:0], c)
			if got, want := string(buf), (DiskRace{}).CanonicalKey(c); got != want {
				t.Fatalf("n=%d: AppendCanonicalKey wrote %q, CanonicalKey returns %q", n, got, want)
			}
		})
	}
}

// TestDiskStateKeyToMatchesKey does the same for the per-state exact key.
func TestDiskStateKeyToMatchesKey(t *testing.T) {
	var buf []byte
	walkDiskRace(t, 3, 20000, func(c model.Config) {
		for pid := 0; pid < c.NumProcesses(); pid++ {
			s := c.State(pid).(diskState)
			buf = s.AppendKey(buf[:0])
			if got, want := string(buf), s.refKey(); got != want {
				t.Fatalf("p%d: AppendKey wrote %q, reference is %q", pid, got, want)
			}
		}
	})
}

// TestFloodKeyToMatchesKey holds floodState's hand-rolled key to its
// Sprintf reference byte for byte across reachable flood configurations.
func TestFloodKeyToMatchesKey(t *testing.T) {
	c := model.NewConfig(Flood{}, []model.Value{"0", "1", "1"})
	opts := explore.Options{MaxConfigs: 20000}
	var buf []byte
	seen := 0
	_, err := explore.Reach(context.Background(), c, []int{0, 1, 2}, opts, func(v explore.Visit) bool {
		for pid := 0; pid < v.Config.NumProcesses(); pid++ {
			s := v.Config.State(pid).(floodState)
			buf = s.AppendKey(buf[:0])
			if got, want := string(buf), s.refKey(); got != want {
				t.Fatalf("p%d: AppendKey wrote %q, reference is %q", pid, got, want)
			}
		}
		seen++
		return true
	})
	if err != nil && seen < opts.MaxConfigs-1 {
		t.Fatal(err)
	}
}

// TestCanonicalKeyToFallback pins the non-DiskRace fallback: on a foreign
// configuration the canonicaliser must append Config.AppendKey's bytes
// after whatever dst already holds, exactly as CanonicalKey falls back to
// Config.Key.
func TestCanonicalKeyToFallback(t *testing.T) {
	c := model.NewConfig(Flood{}, []model.Value{"0", "1"})
	got := string(DiskRace{}.AppendCanonicalKey(nil, c))
	if want := (DiskRace{}).CanonicalKey(c); got != want {
		t.Fatalf("fallback mismatch: AppendCanonicalKey %q, CanonicalKey %q", got, want)
	}
	if got != c.Key() {
		t.Fatalf("fallback should be Config.Key, got %q", got)
	}
	if pre := string(DiskRace{}.AppendCanonicalKey([]byte("pre"), c)); pre != "pre"+got {
		t.Fatalf("fallback dropped the prefix: %q", pre)
	}
}

// TestDecodeBlockRoundTrip covers the hand-rolled split against encode.
func TestDecodeBlockRoundTrip(t *testing.T) {
	blocks := []diskBlock{
		{},
		{Mbal: Ballot{K: 3, Pid: 1}},
		{Mbal: Ballot{K: 12, Pid: 0}, Bal: Ballot{K: 12, Pid: 0}, Inp: "1"},
		{Mbal: Ballot{K: 5, Pid: 2}, Bal: Ballot{K: 4, Pid: 1}, Inp: "0"},
	}
	for _, b := range blocks {
		if got := decodeBlock(b.encode()); got != b {
			t.Fatalf("round trip of %+v gave %+v (encoded %q)", b, got, string(b.encode()))
		}
	}
	if got := decodeBlock(model.Bottom); got != (diskBlock{}) {
		t.Fatalf("decodeBlock(Bottom) = %+v, want zero block", got)
	}
}

// TestPackedCodecConcurrentIntern races four goroutines interning
// overlapping DiskRace states, each through its own key scratch, into one
// codec. Every goroutine must get the same id for a state, equal ids must
// mean equal AppendKey bytes, and records built from those ids must unpack
// to configurations with the original identity bytes. Run it under -race
// to check the intern tables' synchronisation.
func TestPackedCodecConcurrentIntern(t *testing.T) {
	var configs []model.Config
	walkDiskRace(t, 3, 1500, func(c model.Config) { configs = append(configs, c.Clone()) })
	var states []model.State
	for _, c := range configs {
		for pid := 0; pid < c.NumProcesses(); pid++ {
			states = append(states, c.State(pid))
		}
	}
	pc := model.NewPackedCodec(configs[0])
	const workers = 4
	ids := make([][]uint32, workers)
	errs := make(chan error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		ids[w] = make([]uint32, len(states))
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var buf []byte
			// Each worker starts at a different offset, so first sightings
			// of a state race across workers.
			for k := range states {
				i := (k + w*len(states)/workers) % len(states)
				var err error
				if ids[w][i], buf, err = pc.InternState(buf, states[i]); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	byID := map[uint32]string{}
	for i, s := range states {
		key := string(s.AppendKey(nil))
		for w := 1; w < workers; w++ {
			if ids[w][i] != ids[0][i] {
				t.Fatalf("state %d: worker %d got id %d, worker 0 got %d", i, w, ids[w][i], ids[0][i])
			}
		}
		if prev, ok := byID[ids[0][i]]; ok && prev != key {
			t.Fatalf("id %d names both %q and %q", ids[0][i], prev, key)
		}
		byID[ids[0][i]] = key
	}

	words := make([]uint64, pc.Words())
	ustates := make([]model.State, pc.NumProcesses())
	uregs := make([]model.Value, pc.NumRegisters())
	var want, got []byte
	next := 0
	for _, c := range configs {
		for pid := 0; pid < c.NumProcesses(); pid++ {
			pc.SetState(words, pid, ids[0][next])
			next++
		}
		for r := 0; r < c.NumRegisters(); r++ {
			vid, err := pc.InternValue(c.Register(r))
			if err != nil {
				t.Fatal(err)
			}
			pc.SetValue(words, r, vid)
		}
		back, err := pc.UnpackInto(words, ustates, uregs)
		if err != nil {
			t.Fatal(err)
		}
		want, got = c.AppendKey(want[:0]), back.AppendKey(got[:0])
		if string(got) != string(want) {
			t.Fatalf("round trip changed the identity:\n got %q\nwant %q", got, want)
		}
	}
}
