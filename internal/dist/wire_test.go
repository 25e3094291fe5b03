package dist

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"slices"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/explore"
)

func sampleEntries() []Entry {
	return []Entry{
		{FP: explore.Fingerprint{0x0102030405060708, 0x1112131415161718}},
		{FP: explore.Fingerprint{0xdeadbeef, 0xcafe}, Path: []uint32{1, 2, 300000}},
		{FP: explore.Fingerprint{^uint64(0), 0}, Path: []uint32{0}},
	}
}

func TestEntriesRoundTrip(t *testing.T) {
	want := sampleEntries()
	got, err := DecodeEntries(AppendEntries(nil, want))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("decoded %d entries, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].FP != want[i].FP || len(got[i].Path) != len(want[i].Path) {
			t.Fatalf("entry %d: %+v, want %+v", i, got[i], want[i])
		}
		for j := range want[i].Path {
			if got[i].Path[j] != want[i].Path[j] {
				t.Fatalf("entry %d move %d: %d, want %d", i, j, got[i].Path[j], want[i].Path[j])
			}
		}
	}
}

// TestDecodeEntriesHugeCountRejected: a crafted body declaring far more
// entries than its bytes can hold must be rejected before the entry slice
// is sized from the count — the declared count must never amplify a small
// body into a multi-gigabyte allocation.
func TestDecodeEntriesHugeCountRejected(t *testing.T) {
	for _, count := range []uint64{1 << 26, 1 << 40} {
		body := binary.AppendUvarint(nil, count)
		body = append(body, make([]byte, 64)...)
		if _, err := DecodeEntries(body); err == nil {
			t.Fatalf("declared count %d over a %d-byte payload decoded without error", count, len(body))
		}
	}
	// The bound must also catch counts that fit in the old len(body)+1
	// check but not in the per-entry minimum of fingerprint + path length.
	body := binary.AppendUvarint(nil, 10)
	body = append(body, make([]byte, 64)...)
	if _, err := DecodeEntries(body); err == nil {
		t.Fatal("count 10 over a 64-byte payload decoded without error")
	}
}

// TestFrontierChunkBitFlip flips every bit of an encoded exchange chunk:
// every flip must be rejected with an error wrapping checkpoint.ErrCorrupt
// (the satellite guarantee — a torn or corrupted exchange is never
// partially ingested).
func TestFrontierChunkBitFlip(t *testing.T) {
	data, err := EncodeFrontierChunk(2, 1, 0, sampleEntries())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeFrontierChunk(data, 2, 1, 0); err != nil {
		t.Fatalf("pristine chunk rejected: %v", err)
	}
	for byteIdx := range data {
		for bit := 0; bit < 8; bit++ {
			mut := bytes.Clone(data)
			mut[byteIdx] ^= 1 << bit
			if _, err := DecodeFrontierChunk(mut, 2, 1, 0); !errors.Is(err, checkpoint.ErrCorrupt) {
				t.Fatalf("flip byte %d bit %d: err = %v, want ErrCorrupt", byteIdx, bit, err)
			}
		}
	}
}

// TestFrontierChunkIdentityMismatch: an intact chunk claimed for a
// different (level, from, to) is rejected too — a stale chunk must not be
// ingested as the current level's.
func TestFrontierChunkIdentityMismatch(t *testing.T) {
	data, err := EncodeFrontierChunk(2, 1, 0, sampleEntries())
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range [][3]int{{3, 1, 0}, {2, 0, 0}, {2, 1, 2}} {
		if _, err := DecodeFrontierChunk(data, want[0], want[1], want[2]); err == nil {
			t.Fatalf("chunk accepted as level %d %d->%d", want[0], want[1], want[2])
		}
	}
}

func TestSliceCheckpointRoundTrip(t *testing.T) {
	ck := &SliceCheckpoint{
		Slice:     1,
		Level:     4,
		FPVersion: explore.FingerprintVersion,
		Visited:   []explore.Fingerprint{{9, 9}, {1, 2}, {1, 1}},
		Steps:     17,
		Fresh:     3,
		Digest:    explore.Fingerprint{0xfeed, 0xface},
	}
	data, err := ck.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeSliceCheckpoint(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Slice != ck.Slice || got.Level != ck.Level || got.FPVersion != ck.FPVersion ||
		got.Steps != ck.Steps || got.Fresh != ck.Fresh || got.Digest != ck.Digest {
		t.Fatalf("meta %+v, want %+v", got, ck)
	}
	if len(got.Visited) != len(ck.Visited) {
		t.Fatalf("decoded %d visited, want %d", len(got.Visited), len(ck.Visited))
	}
	// Encoding sorts the visited set, so a checkpoint's bytes are a pure
	// function of the state, whatever map-iteration order produced it.
	data2, err := (&SliceCheckpoint{
		Slice: 1, Level: 4, FPVersion: ck.FPVersion,
		Visited: []explore.Fingerprint{{1, 1}, {1, 2}, {9, 9}},
		Steps:   17, Fresh: 3, Digest: ck.Digest,
	}).Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, data2) {
		t.Fatal("checkpoint bytes depend on visited order")
	}
	// Corruption anywhere fails typed.
	for cut := 0; cut < len(data); cut++ {
		if _, err := DecodeSliceCheckpoint(data[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	// Negative counts are refused: they would feed the witness.
	for _, bad := range []SliceCheckpoint{{Steps: -1}, {Fresh: -1}} {
		body, err := bad.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := DecodeSliceCheckpoint(body); err == nil {
			t.Fatalf("checkpoint with steps %d fresh %d accepted", bad.Steps, bad.Fresh)
		}
	}
}

func TestRenderWitnessShape(t *testing.T) {
	spec := Spec{Protocol: "diskrace", N: 3, MaxDepth: 4, FPVersion: 2}
	levels := []LevelStat{
		{Fresh: 1, Digest: explore.Fingerprint{0xa, 0xb}},
		{Fresh: 7, Digest: explore.Fingerprint{0x1, 0x2}},
	}
	got := string(RenderWitness(spec, levels, 21))
	want := "distributed reachability witness\n" +
		"protocol: diskrace\n" +
		"n: 3\n" +
		"fingerprint: v2\n" +
		"max depth: 4\n" +
		"level 0: configs=1 digest=000000000000000a000000000000000b\n" +
		"level 1: configs=7 digest=00000000000000010000000000000002\n" +
		"total configs: 8\n" +
		"total steps: 21\n" +
		"depth: 1\n"
	if got != want {
		t.Fatalf("witness:\n%s\nwant:\n%s", got, want)
	}
}

// parentCheckpointHex is a slice checkpoint encoded by the build before
// workers kept their visited sets sorted (Encode then cloned and sorted on
// every call): slice 2, level 7, five visited fingerprints given to Encode
// out of order, steps 1234, fresh 3.
const parentCheckpointHex = "5342434b5054010a5e7b22736c696365223a322c226c6576656c223a372c2266705f76657273696f6e223a322c2276697369746564223a352c227374657073223a313233342c226672657368223a332c22646967657374223a5b36353236312c36343230365d7d7ef0453683a919e17b17aeee3ebd41faae89e91b2e3fa91508d364fcd8c1c5f0500000000000000000ffffffffffffffff0100000000000000020000000000000001000000000000000900000000000000090000000000000001000000000000001032547698badcfeefcdab8967452301f9a164c80b7d2e6b83bf0feec78afb62155b7b775ff6e870e736fc72842037ac"

// TestSliceCheckpointParentFormat: a checkpoint written before the sorted
// visited set decodes and re-encodes byte-identically, and encoding the
// same state from unsorted input — which Encode must now detect — gives
// the same bytes, without reordering the caller's slice.
func TestSliceCheckpointParentFormat(t *testing.T) {
	parent, err := hex.DecodeString(parentCheckpointHex)
	if err != nil {
		t.Fatal(err)
	}
	ck, err := DecodeSliceCheckpoint(parent)
	if err != nil {
		t.Fatal(err)
	}
	again, err := ck.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, parent) {
		t.Fatal("re-encoded parent checkpoint differs from the parent's bytes")
	}
	unsorted := []explore.Fingerprint{{9, 1}, {0xfedcba9876543210, 0x0123456789abcdef}, {1, 9}, {1, 2}, {0, ^uint64(0)}}
	given := slices.Clone(unsorted)
	fromUnsorted, err := (&SliceCheckpoint{Slice: 2, Level: 7, FPVersion: explore.FingerprintVersion,
		Visited: given, Steps: 1234, Fresh: 3, Digest: explore.Fingerprint{0xfeed, 0xface}}).Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fromUnsorted, parent) {
		t.Fatal("encoding unsorted visited fingerprints differs from the parent's bytes")
	}
	if !slices.Equal(given, unsorted) {
		t.Fatal("Encode reordered the caller's visited slice")
	}
}

// TestDecodeEntriesPathsDisjoint: paths carved from one slab are capped at
// their own length, so growing one never overwrites the next.
func TestDecodeEntriesPathsDisjoint(t *testing.T) {
	got, err := DecodeEntries(AppendEntries(nil, sampleEntries()))
	if err != nil {
		t.Fatal(err)
	}
	next := slices.Clone(got[2].Path)
	grown := append(got[1].Path, 7, 7, 7)
	if !slices.Equal(got[2].Path, next) || len(grown) != len(got[1].Path)+3 {
		t.Fatalf("appending to path 1 changed path 2: %v, want %v", got[2].Path, next)
	}
}
