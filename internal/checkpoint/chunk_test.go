package checkpoint

import (
	"bytes"
	"encoding/binary"
	"errors"
	"runtime"
	"testing"
)

// TestChunkRoundTrip pins the exchange-chunk framing.
func TestChunkRoundTrip(t *testing.T) {
	h := ChunkHeader{Kind: "frontier", Level: 3, From: 1, To: 2, Count: 7}
	body := []byte("opaque frontier entries")
	data, err := EncodeChunk(h, body)
	if err != nil {
		t.Fatal(err)
	}
	gotH, gotBody, err := DecodeChunk(data)
	if err != nil {
		t.Fatal(err)
	}
	if gotH != h {
		t.Fatalf("header %+v, want %+v", gotH, h)
	}
	if !bytes.Equal(gotBody, body) {
		t.Fatalf("body %q, want %q", gotBody, body)
	}
}

// TestChunkBitFlip flips every bit of an encoded chunk and requires every
// flip to fail DecodeChunk with ErrCorrupt — a corrupted exchange chunk
// must never be partially ingested by a shard worker.
func TestChunkBitFlip(t *testing.T) {
	data, err := EncodeChunk(ChunkHeader{Kind: "frontier", Level: 1, From: 0, To: 1, Count: 2}, []byte{1, 2, 3, 4, 5, 6, 7, 8})
	if err != nil {
		t.Fatal(err)
	}
	for byteIdx := range data {
		for bit := 0; bit < 8; bit++ {
			mut := bytes.Clone(data)
			mut[byteIdx] ^= 1 << bit
			if _, _, err := DecodeChunk(mut); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("flip byte %d bit %d: err = %v, want ErrCorrupt", byteIdx, bit, err)
			}
		}
	}
}

// TestChunkTornTail truncates the chunk at every length; every prefix must
// fail typed.
func TestChunkTornTail(t *testing.T) {
	data, err := EncodeChunk(ChunkHeader{Kind: "frontier", Level: 2, From: 2, To: 0, Count: 1}, []byte("body"))
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(data); cut++ {
		if _, _, err := DecodeChunk(data[:cut]); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("truncate at %d: err = %v, want ErrCorrupt", cut, err)
		}
	}
}

// TestDeclaredLengthDoesNotDriveAllocation feeds a 77-byte stream whose
// record claims almost 4 GiB: the readers must fail it as ErrCorrupt
// having allocated about what the input holds, not what it claims. Chunk
// bodies arrive from the network, so the claim is attacker-controlled.
func TestDeclaredLengthDoesNotDriveAllocation(t *testing.T) {
	data := []byte(segmentMagic)
	data = binary.AppendUvarint(data, maxRecordLen-1)
	data = append(data, make([]byte, 64)...)
	if len(data) != 77 {
		t.Fatalf("input is %d bytes, want 77", len(data))
	}
	for _, tc := range []struct {
		name string
		read func() error
	}{
		{"ReadSegment", func() error { _, err := ReadSegment(bytes.NewReader(data)); return err }},
		{"DecodeChunk", func() error { _, _, err := DecodeChunk(data); return err }},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := tc.read()
		runtime.ReadMemStats(&after)
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%s: err = %v, want ErrCorrupt", tc.name, err)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
			t.Fatalf("%s allocated %d bytes for a %d-byte input", tc.name, grew, len(data))
		}
	}
}
