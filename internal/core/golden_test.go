package core

import (
	"testing"

	"repro/internal/consensus"
	"repro/internal/explore"
	"repro/internal/model"
	"repro/internal/perturb"
)

// goldenLimit is how many distinct configurations each golden case digests.
const goldenLimit = 5000

// goldenDigest walks the configurations reachable from c breadth-first (a
// plain FIFO over explore.Moves, independent of the engine's frontier
// layout), deduplicating on fingerprints under opts, and returns how many
// distinct fingerprints it met (at most goldenLimit) and their XOR.
func goldenDigest(c model.Config, opts explore.Options) (int, explore.Fingerprint) {
	pids := make([]int, c.NumProcesses())
	for i := range pids {
		pids[i] = i
	}
	fpr := opts.NewFingerprinter()
	seen := map[explore.Fingerprint]bool{}
	var digest explore.Fingerprint
	add := func(cfg model.Config) bool {
		fp := fpr.Fingerprint(cfg)
		if seen[fp] {
			return false
		}
		seen[fp] = true
		digest[0] ^= fp[0]
		digest[1] ^= fp[1]
		return true
	}
	add(c)
	for queue := []model.Config{c}; len(queue) > 0 && len(seen) < goldenLimit; queue = queue[1:] {
		for _, m := range explore.Moves(queue[0], pids) {
			child := model.ApplyMove(queue[0], m)
			if add(child) {
				if len(seen) == goldenLimit {
					break
				}
				queue = append(queue, child)
			}
		}
	}
	return len(seen), digest
}

// TestFingerprintGolden pins the durable fingerprints. Checkpoint snapshots,
// the valency memo and the dist journal persist fingerprints under
// explore.FingerprintVersion, so the key bytes each protocol's identity
// emits must not drift while the version stays put: a changed constant here
// means either the key encoding changed (bump FingerprintVersion and
// recompute) or a refactor broke byte identity (fix it).
func TestFingerprintGolden(t *testing.T) {
	diskM, diskOpts, err := Machine(ProtocolDiskRace)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		m      model.Machine
		inputs []model.Value
		opts   explore.Options
		count  int
		digest explore.Fingerprint
	}{
		{"diskrace-n3-canonical", diskM, []model.Value{"0", "1", "1"}, diskOpts, 5000, explore.Fingerprint{0xb91894c6ae57279c, 0x432f43695ea677e3}},
		{"flood-n3", consensus.Flood{}, []model.Value{"0", "1", "1"}, explore.Options{}, 5000, explore.Fingerprint{0x6f02eec2073da96f, 0xb15628cd122f91ca}},
		{"coinflood-n2", consensus.CoinFlood{}, []model.Value{"0", "1"}, explore.Options{}, 703, explore.Fingerprint{0xda7ec9ef9abdcee1, 0x40ecb602023f9277}},
		{"kset2-n3", consensus.KSet{K: 2}, []model.Value{"0", "1", "1"}, explore.Options{}, 5000, explore.Fingerprint{0x285aac81f1ffbc79, 0x971943b8fa8b3101}},
		{"swap-n2", consensus.SwapPair{}, []model.Value{"0", "1"}, explore.Options{}, 5, explore.Fingerprint{0xed4d8fdd22554648, 0xfd83ff88b6fdf5cb}},
		{"adoptcommit-n2", consensus.AdoptCommit{}, []model.Value{"0", "1"}, explore.Options{}, 46, explore.Fingerprint{0xb749c866fef63aef, 0x7d48096fac5c0e5a}},
		{"swcounter-n2", perturb.SWCounter{}, []model.Value{"2", "2"}, explore.Options{}, 145, explore.Fingerprint{0x981bdd5ce3275a32, 0x3363b4889975866e}},
		{"swcollect-n2", perturb.SWCollect{}, []model.Value{"2", "2"}, explore.Options{}, 170, explore.Fingerprint{0x4e18cd7f50a24898, 0x2252bad3dd21e583}},
	}
	if explore.FingerprintVersion != 2 {
		t.Fatalf("FingerprintVersion = %d: recompute the golden digests for the new function", explore.FingerprintVersion)
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			count, digest := goldenDigest(model.NewConfig(tc.m, tc.inputs), tc.opts)
			if count != tc.count || digest != tc.digest {
				t.Fatalf("%d fingerprints digesting to %#x, want %d digesting to %#x", count, digest, tc.count, tc.digest)
			}
		})
	}
}
