package consensus

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/explore"
	"repro/internal/model"
)

// packedKeyCheck holds the packed canonicaliser to the Config form and to
// the string oracle on a list of configurations. It packs them into two
// codecs that intern in opposite orders — codec A in list order, codec B
// in reverse — so the same configuration carries different dictionary ids
// in each, and requires for every configuration
//
//	keyer A's bytes == keyer B's bytes == AppendCanonicalKey(Unpack) == CanonicalKey
//
// with every key appended into one reused buffer per form.
func packedKeyCheck(t testing.TB, configs []model.Config) {
	t.Helper()
	pa := model.NewPackedCodec(configs[0])
	pb := model.NewPackedCodec(configs[0])
	recA := make([][]uint64, len(configs))
	recB := make([][]uint64, len(configs))
	for i := len(configs) - 1; i >= 0; i-- {
		var err error
		if recB[i], err = pb.Pack(configs[i]); err != nil {
			t.Fatal(err)
		}
	}
	for i, c := range configs {
		var err error
		if recA[i], err = pa.Pack(c); err != nil {
			t.Fatal(err)
		}
	}
	ka := DiskRace{}.NewPackedKeyer(pa)
	kb := DiskRace{}.NewPackedKeyer(pb)
	var bufA, bufB, bufC []byte
	for i, c := range configs {
		bufA = ka.AppendPackedKey(bufA[:0], recA[i])
		bufB = kb.AppendPackedKey(bufB[:0], recB[i])
		back, err := pa.Unpack(recA[i])
		if err != nil {
			t.Fatal(err)
		}
		bufC = DiskRace{}.AppendCanonicalKey(bufC[:0], back)
		want := DiskRace{}.CanonicalKey(c)
		if string(bufC) != want {
			t.Fatalf("config %d: AppendCanonicalKey(Unpack) %q, CanonicalKey %q", i, bufC, want)
		}
		if string(bufA) != want || string(bufB) != want {
			t.Fatalf("config %d: packed keys differ from CanonicalKey\n codec A %q\n codec B %q\n    want %q", i, bufA, bufB, want)
		}
	}
}

// TestPackedCanonicalKeyMatchesBFS runs the byte-identity check over the
// first 60,000 BFS configurations of DiskRace at n=3 and at n=4, and
// requires the walk to have covered aborting states and ⊥ registers.
func TestPackedCanonicalKeyMatchesBFS(t *testing.T) {
	const limit = 60000
	for _, n := range []int{3, 4} {
		var configs []model.Config
		walkDiskRace(t, n, limit+1, func(c model.Config) { configs = append(configs, c.Clone()) })
		if len(configs) < limit {
			t.Fatalf("n=%d: walk produced %d configurations, want %d", n, len(configs), limit)
		}
		aborting, bottom := 0, 0
		for _, c := range configs {
			for pid := 0; pid < n; pid++ {
				if c.State(pid).(diskState).aborting {
					aborting++
				}
			}
			for r := 0; r < c.NumRegisters(); r++ {
				if c.Register(r) == model.Bottom {
					bottom++
				}
			}
		}
		if aborting == 0 || bottom == 0 {
			t.Fatalf("n=%d: walk covered %d aborting states and %d ⊥ registers, want both", n, aborting, bottom)
		}
		packedKeyCheck(t, configs)
	}
}

// TestPackedCanonicalKeyEdgeCases covers what BFS rarely or never reaches:
// renumbered rounds of two digits, rounds too large for the bit-set
// remap, and records holding a state of another protocol, which must fall
// back to the exact identity as AppendCanonicalKey does.
func TestPackedCanonicalKeyEdgeCases(t *testing.T) {
	root := model.NewConfig(DiskRace{}, []model.Value{"0", "1", "1", "0"})
	st := func(pid, k, ownK, maxK, maxBalK int, aborting bool) diskState {
		return diskState{
			n: 4, pid: pid, input: "1",
			ballot: Ballot{K: k, Pid: pid}, phase: diskP1Scan, idx: 2,
			ownBal: Ballot{K: ownK, Pid: pid}, ownInp: "1", proposal: "1",
			maxK: maxK, aborting: aborting,
			maxBal: Ballot{K: maxBalK, Pid: (pid + 1) % 4}, balInp: "0",
		}
	}
	block := func(mbal, bal int) model.Value {
		return diskBlock{Mbal: Ballot{K: mbal, Pid: 1}, Bal: Ballot{K: bal, Pid: 2}, Inp: "1"}.encode()
	}
	// Rounds 2, 4, ..., 30 renumber to 1, 3, ..., 29: past 9, so the
	// emitter's one-digit fast path must hand over to the wide one.
	twoDigit := model.RebuildConfig(root,
		[]model.State{st(0, 2, 4, 6, 8, false), st(1, 10, 12, 14, 16, true), st(2, 18, 20, 22, 24, false), st(3, 26, 28, 30, 0, true)},
		[]model.Value{block(30, 28), block(2, 0), model.Bottom, block(16, 14)})
	// Rounds of 64 and above leave the bit-set remap for the sorted list.
	wide := model.RebuildConfig(root,
		[]model.State{st(0, 1000, 64, 63, 1, true), st(1, 7, 999, 1000, 0, false), st(2, 1, 1, 1, 1, false), st(3, 5000, 64, 65, 66, true)},
		[]model.Value{block(1000, 999), block(64, 63), block(0, 0), model.Bottom})
	if got := string(DiskRace{}.AppendCanonicalKey(nil, twoDigit)); !bytes.Contains([]byte(got), []byte("29.")) {
		t.Fatalf("two-digit case renumbers no round to 29: %q", got)
	}
	packedKeyCheck(t, []model.Config{root, twoDigit, wide})

	// A record with one Flood state among DiskRace states, and a wholly
	// Flood one: both keys are the exact identity.
	flood := model.NewConfig(Flood{}, []model.Value{"0", "1", "1", "0"})
	mixed := model.RebuildConfig(root,
		[]model.State{st(0, 1, 0, 0, 0, false), flood.State(1), st(2, 3, 1, 2, 1, true), st(3, 1, 0, 0, 0, false)},
		[]model.Value{block(1, 0), model.Bottom, model.Bottom, model.Bottom})
	for _, c := range []model.Config{mixed, flood} {
		pc := model.NewPackedCodec(c)
		rec, err := pc.Pack(c)
		if err != nil {
			t.Fatal(err)
		}
		k := DiskRace{}.NewPackedKeyer(pc)
		for range 2 { // the second call hits the cached foreign template
			if got := string(k.AppendPackedKey([]byte("pre"), rec)); got != "pre"+c.Key() {
				t.Fatalf("fallback: packed key %q, want %q", got, "pre"+c.Key())
			}
		}
		packedKeyCheck(t, []model.Config{c})
	}
}

// FuzzPackedCanonicalKey runs the byte-identity check on seeded random
// walks: n = 2..4 processes with inputs from the seed's low bits, up to
// 300 random moves, every configuration along the walk checked.
func FuzzPackedCanonicalKey(f *testing.F) {
	f.Add(int64(1), uint8(0), uint16(40))
	f.Add(int64(7), uint8(1), uint16(120))
	f.Add(int64(42), uint8(2), uint16(300))
	f.Add(int64(-3), uint8(2), uint16(299))
	f.Fuzz(func(t *testing.T, seed int64, nsel uint8, steps uint16) {
		n := 2 + int(nsel%3)
		inputs := make([]model.Value, n)
		pids := make([]int, n)
		for i := range inputs {
			inputs[i] = "0"
			if seed>>uint(i)&1 == 1 {
				inputs[i] = "1"
			}
			pids[i] = i
		}
		rng := rand.New(rand.NewSource(seed))
		c := model.NewConfig(DiskRace{}, inputs)
		configs := []model.Config{c}
		for i := 0; i < int(steps%301); i++ {
			moves := explore.Moves(c, pids)
			if len(moves) == 0 {
				break
			}
			c = model.ApplyMove(c, moves[rng.Intn(len(moves))])
			configs = append(configs, c)
		}
		packedKeyCheck(t, configs)
	})
}
