package dist

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"

	"repro/internal/checkpoint"
	"repro/internal/explore"
	"repro/internal/faults"
	"repro/internal/obs"
)

// The coordinator's durability layer: a write-ahead journal plus per-level
// snapshots, both in the S20 checksummed-segment format.
//
// Layout of the journal directory:
//
//	state-<seq>.ckpt   atomic snapshot of the whole coordinator state,
//	                   written at every level close (and at attach/recover)
//	wal-<seq>.seg      append-only log of every accepted mutation since
//	                   snapshot <seq>
//
// A snapshot and its WAL pair up: replaying wal-<seq> over state-<seq>
// reproduces the coordinator's in-memory state at the moment of the last
// durable append. The last two pairs are kept (keep-2, matching the
// checkpoint store); if the newest snapshot is corrupt, recovery falls back
// to the previous one and replays *both* WALs — wal-<seq-1> ends with
// exactly the mark record whose level close produced snapshot <seq>, so
// the chain is gapless.
//
// Appends are not fsynced per record: SIGKILL (the chaos harness's crash)
// loses nothing the OS already buffered, so crash-recovery is exact;
// a power loss can tear the tail, which ScanSegment detects and truncates
// to the last intact record — an older but consistent state the workers
// redo forward from deterministically.
//
// Disk faults degrade, never abort: a failed append or snapshot marks the
// journal degraded (memory-only, loud metrics) and the barrier keeps
// running; the next successful snapshot re-establishes durability with a
// fresh WAL.

// Journal record tags. 2, 5 and 6 are WAL mutations, 10, 11, 13 and 14
// snapshot records. Tags 1, 3, 4 and 12 are retired and must never be
// reused: a journal written with them fails to decode instead of being
// misread.
const (
	jrecChunk    = 2  // exchange chunk stored: level, from, to, body
	jrecGen      = 5  // generation bump written at the start of a recovery
	jrecMark     = 6  // barrier mark: slice, level, steps, fresh, digest, checkpoint body
	jrecMeta     = 10 // snapshot meta (JSON)
	jrecLevel    = 11 // one closed level's stats: fresh, digest
	jrecRetained = 13 // one retained exchange chunk: level, from, to, body
	jrecSlice    = 14 // one slice's full state
)

// errJournalCorrupt tags a journal record whose checksum held but whose
// content does not decode — the condition recovery skips past (keeping the
// intact prefix) and the fuzz target proves is never a panic.
var errJournalCorrupt = errors.New("dist: journal record corrupt")

// journalRec is a decoded journal record; which fields are meaningful
// depends on Tag.
type journalRec struct {
	Tag       byte
	Slice     int
	Level     int
	From, To  int
	Steps     int64
	Fresh     int64
	Digest    explore.Fingerprint
	Gen       int
	Flags     byte
	CkptLevel int
	Reassigns int
	Body      []byte
}

// Slice-state flag bits of a jrecSlice record.
const (
	sflagHasCkpt   = 1 << 0
	sflagEverOwned = 1 << 1
)

func appendUvarint(b []byte, v uint64) []byte { return binary.AppendUvarint(b, v) }

// encode renders the record's payload (the bytes that go inside one
// checksummed segment record).
func (r *journalRec) encode() []byte {
	b := []byte{r.Tag}
	switch r.Tag {
	case jrecChunk, jrecRetained:
		b = appendUvarint(b, uint64(r.Level))
		b = appendUvarint(b, uint64(r.From))
		b = appendUvarint(b, uint64(r.To))
		b = append(b, r.Body...)
	case jrecMark:
		b = appendUvarint(b, uint64(r.Slice))
		b = appendUvarint(b, uint64(r.Level))
		b = appendUvarint(b, uint64(r.Steps))
		b = appendUvarint(b, uint64(r.Fresh))
		b = appendUvarint(b, r.Digest[0])
		b = appendUvarint(b, r.Digest[1])
		b = append(b, r.Body...)
	case jrecGen:
		b = appendUvarint(b, uint64(r.Gen))
	case jrecMeta:
		b = append(b, r.Body...)
	case jrecLevel:
		b = appendUvarint(b, uint64(r.Fresh))
		b = appendUvarint(b, r.Digest[0])
		b = appendUvarint(b, r.Digest[1])
	case jrecSlice:
		b = appendUvarint(b, uint64(r.Slice))
		b = append(b, r.Flags)
		b = appendUvarint(b, uint64(r.CkptLevel))
		b = appendUvarint(b, uint64(r.Steps))
		b = appendUvarint(b, uint64(r.Fresh))
		b = appendUvarint(b, r.Digest[0])
		b = appendUvarint(b, r.Digest[1])
		b = appendUvarint(b, uint64(r.Reassigns))
		b = append(b, r.Body...)
	}
	return b
}

// maxJournalInt bounds every decoded integer field: slice indexes, levels
// and counts all stay far below it, so a larger value is corruption, not
// data — and rejecting it here keeps a flipped bit from turning into an
// absurd index downstream.
const maxJournalInt = 1 << 30

// uvarintField decodes one bounded non-negative integer field.
func uvarintField(b []byte, what string) (int, []byte, error) {
	v, n := binary.Uvarint(b)
	if n <= 0 || v > maxJournalInt {
		return 0, nil, fmt.Errorf("%w: %s", errJournalCorrupt, what)
	}
	return int(v), b[n:], nil
}

// uvarint64Field decodes one unbounded uint64 field (digest halves).
func uvarint64Field(b []byte, what string) (uint64, []byte, error) {
	v, n := binary.Uvarint(b)
	if n <= 0 {
		return 0, nil, fmt.Errorf("%w: %s", errJournalCorrupt, what)
	}
	return v, b[n:], nil
}

// decodeJournalRecord decodes one record payload. Corruption anywhere — an
// unknown tag, a truncated or oversized field, trailing bytes after a
// fixed-size record — fails with an error wrapping errJournalCorrupt and
// never panics; recovery treats the first undecodable record as the end of
// the intact prefix.
func decodeJournalRecord(payload []byte) (journalRec, error) {
	var r journalRec
	if len(payload) == 0 {
		return r, fmt.Errorf("%w: empty record", errJournalCorrupt)
	}
	r.Tag = payload[0]
	b := payload[1:]
	var err error
	switch r.Tag {
	case jrecChunk, jrecRetained:
		if r.Level, b, err = uvarintField(b, "chunk level"); err != nil {
			return r, err
		}
		if r.From, b, err = uvarintField(b, "chunk from"); err != nil {
			return r, err
		}
		if r.To, b, err = uvarintField(b, "chunk to"); err != nil {
			return r, err
		}
		r.Body = b
	case jrecMark:
		if r.Slice, b, err = uvarintField(b, "mark slice"); err != nil {
			return r, err
		}
		if r.Level, b, err = uvarintField(b, "mark level"); err != nil {
			return r, err
		}
		var steps, fresh int
		if steps, b, err = uvarintField(b, "mark steps"); err != nil {
			return r, err
		}
		r.Steps = int64(steps)
		if fresh, b, err = uvarintField(b, "mark fresh"); err != nil {
			return r, err
		}
		r.Fresh = int64(fresh)
		if r.Digest[0], b, err = uvarint64Field(b, "mark digest0"); err != nil {
			return r, err
		}
		if r.Digest[1], b, err = uvarint64Field(b, "mark digest1"); err != nil {
			return r, err
		}
		r.Body = b
	case jrecGen:
		if r.Gen, b, err = uvarintField(b, "generation"); err != nil {
			return r, err
		}
		if len(b) != 0 {
			return r, fmt.Errorf("%w: %d trailing bytes after generation record", errJournalCorrupt, len(b))
		}
	case jrecMeta:
		r.Body = b
	case jrecLevel:
		var fresh int
		if fresh, b, err = uvarintField(b, "level fresh"); err != nil {
			return r, err
		}
		r.Fresh = int64(fresh)
		if r.Digest[0], b, err = uvarint64Field(b, "level digest0"); err != nil {
			return r, err
		}
		if r.Digest[1], b, err = uvarint64Field(b, "level digest1"); err != nil {
			return r, err
		}
		if len(b) != 0 {
			return r, fmt.Errorf("%w: %d trailing bytes after level record", errJournalCorrupt, len(b))
		}
	case jrecSlice:
		if r.Slice, b, err = uvarintField(b, "slice index"); err != nil {
			return r, err
		}
		if len(b) == 0 {
			return r, fmt.Errorf("%w: slice record missing flags", errJournalCorrupt)
		}
		r.Flags = b[0]
		if r.Flags&^(sflagHasCkpt|sflagEverOwned) != 0 {
			return r, fmt.Errorf("%w: slice record has unknown flags %#x", errJournalCorrupt, r.Flags)
		}
		b = b[1:]
		if r.CkptLevel, b, err = uvarintField(b, "slice ckpt level"); err != nil {
			return r, err
		}
		var steps, fresh int
		if steps, b, err = uvarintField(b, "slice steps"); err != nil {
			return r, err
		}
		r.Steps = int64(steps)
		if fresh, b, err = uvarintField(b, "slice fresh"); err != nil {
			return r, err
		}
		r.Fresh = int64(fresh)
		if r.Digest[0], b, err = uvarint64Field(b, "slice digest0"); err != nil {
			return r, err
		}
		if r.Digest[1], b, err = uvarint64Field(b, "slice digest1"); err != nil {
			return r, err
		}
		if r.Reassigns, b, err = uvarintField(b, "slice reassigns"); err != nil {
			return r, err
		}
		r.Body = b
	default:
		return r, fmt.Errorf("%w: unknown tag %d", errJournalCorrupt, r.Tag)
	}
	return r, nil
}

// journalMeta is the JSON body of a snapshot's jrecMeta record.
type journalMeta struct {
	Seq    uint64    `json:"seq"`
	Gen    int       `json:"gen"`
	Level  int       `json:"level"`
	Steps  int64     `json:"steps"`
	Done   bool      `json:"done"`
	Spec   Spec      `json:"spec"`
	RootFP [2]uint64 `json:"root_fp"`
	Levels int       `json:"levels"`
	Slices int       `json:"slices"`
	Chunks int       `json:"chunks"`
}

// snapSlice is one slice's recovered state.
type snapSlice struct {
	hasCkpt   bool
	everOwned bool
	ckptLevel int
	steps     int64
	fresh     int64
	digest    explore.Fingerprint
	reassigns int
	ckpt      []byte
}

// journalState is everything recovery rebuilds the coordinator from: the
// newest intact snapshot plus the decoded WAL records to replay over it.
type journalState struct {
	meta    journalMeta
	levels  []LevelStat
	slices  []snapSlice
	chunks  map[chunkKey][]byte
	walRecs []journalRec
}

// FileOpener is the journal's file-creation hook: the production opener is
// faults.OpenOS, the disk-fault tests and -dist-journal-fault substitute
// one that wraps every file in a faults.FaultyFile.
type FileOpener func(path string, flag int) (faults.File, error)

// JournalOptions configures OpenJournal.
type JournalOptions struct {
	// Opener is the write-side file hook (nil = real os files). The read
	// side always uses plain os files: recovery reads what the disk truly
	// holds.
	Opener FileOpener
	Scope  *obs.Scope
}

// Journal is the coordinator's durability backend. All methods are called
// with the coordinator's mutex held (the coordinator serializes every
// mutation), so the journal itself needs no lock of its own; it still
// never calls back into the coordinator.
type Journal struct {
	dir   string
	open  FileOpener
	scope *obs.Scope

	seq      uint64      // snapshot seq the active WAL extends
	wal      faults.File // nil while degraded or before attach
	walW     *checkpoint.Writer
	degraded bool

	recovered *journalState // non-nil until Recover consumes it
}

func snapPath(dir string, seq uint64) string {
	return filepath.Join(dir, fmt.Sprintf("state-%08d.ckpt", seq))
}

func walPath(dir string, seq uint64) string {
	return filepath.Join(dir, fmt.Sprintf("wal-%08d.seg", seq))
}

// OpenJournal opens (or creates) the journal directory and, when prior
// state exists, loads the newest intact snapshot chain: snapshot N plus
// wal-N, falling back to snapshot N-1 plus both WALs when N is corrupt.
// The torn tail of the newest WAL — a crash mid-append — is truncated to
// the last intact, decodable record. A directory with snapshot files none
// of which load is an error: silently starting a finished run over would
// be worse than failing loudly.
func OpenJournal(dir string, opts JournalOptions) (*Journal, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("dist: journal dir: %w", err)
	}
	opener := opts.Opener
	if opener == nil {
		opener = faults.OpenOS
	}
	j := &Journal{dir: dir, open: opener, scope: opts.Scope}
	seqs, err := j.snapshotSeqs()
	if err != nil {
		return nil, err
	}
	if len(seqs) == 0 {
		return j, nil // fresh directory; AttachJournal seeds snapshot 0
	}
	newest := seqs[len(seqs)-1]
	st, err := j.loadSnapshot(newest)
	if err == nil {
		st.walRecs, err = j.scanWAL(newest)
		if err != nil {
			return nil, err
		}
	} else if errors.Is(err, checkpoint.ErrCorrupt) || errors.Is(err, errJournalCorrupt) {
		// Corrupt-skip fallback: the previous snapshot plus both WALs is
		// the same state — wal-(N-1)'s replay ends exactly where snapshot N
		// begins.
		j.scope.Counter("dist_journal_snapshot_corrupt").Add(1)
		j.scope.Event("dist_journal_snapshot_corrupt")
		if len(seqs) < 2 {
			return nil, fmt.Errorf("dist: journal snapshot %d corrupt with no fallback: %w", newest, err)
		}
		prev := seqs[len(seqs)-2]
		st, err = j.loadSnapshot(prev)
		if err != nil {
			return nil, fmt.Errorf("dist: journal fallback snapshot %d: %w", prev, err)
		}
		prevRecs, err := j.scanWAL(prev)
		if err != nil {
			return nil, err
		}
		newRecs, err := j.scanWAL(newest)
		if err != nil {
			return nil, err
		}
		st.walRecs = append(prevRecs, newRecs...)
	} else {
		return nil, fmt.Errorf("dist: journal snapshot %d: %w", newest, err)
	}
	j.seq = newest
	j.recovered = st
	return j, nil
}

// attachFresh seeds a brand-new journal directory: snapshot 0 of the empty
// run plus an empty active WAL, so a crash before the first level close
// still recovers (to the start).
func (j *Journal) attachFresh(records [][]byte) error {
	if j.recovered != nil {
		return fmt.Errorf("dist: journal holds recovered state, not fresh")
	}
	if err := j.writeAtomicSegment(snapPath(j.dir, 0), records); err != nil {
		return err
	}
	return j.openWAL()
}

// Recovered reports whether the journal loaded prior state at open.
func (j *Journal) Recovered() bool { return j != nil && j.recovered != nil }

// Dir returns the journal directory.
func (j *Journal) Dir() string { return j.dir }

// snapshotSeqs lists the snapshot sequence numbers present, ascending.
func (j *Journal) snapshotSeqs() ([]uint64, error) {
	names, err := filepath.Glob(filepath.Join(j.dir, "state-*.ckpt"))
	if err != nil {
		return nil, err
	}
	var seqs []uint64
	for _, name := range names {
		var seq uint64
		if _, err := fmt.Sscanf(filepath.Base(name), "state-%d.ckpt", &seq); err == nil {
			seqs = append(seqs, seq)
		}
	}
	sort.Slice(seqs, func(a, b int) bool { return seqs[a] < seqs[b] })
	return seqs, nil
}

// loadSnapshot reads and decodes one snapshot file into a journalState.
func (j *Journal) loadSnapshot(seq uint64) (*journalState, error) {
	recs, err := checkpoint.ReadSegmentFile(snapPath(j.dir, seq))
	if err != nil {
		return nil, err
	}
	if len(recs) == 0 {
		return nil, fmt.Errorf("%w: empty snapshot", errJournalCorrupt)
	}
	first, err := decodeJournalRecord(recs[0])
	if err != nil {
		return nil, err
	}
	if first.Tag != jrecMeta {
		return nil, fmt.Errorf("%w: snapshot starts with tag %d, want meta", errJournalCorrupt, first.Tag)
	}
	st := &journalState{chunks: make(map[chunkKey][]byte)}
	if err := json.Unmarshal(first.Body, &st.meta); err != nil {
		return nil, fmt.Errorf("%w: snapshot meta: %v", errJournalCorrupt, err)
	}
	if st.meta.Slices <= 0 || st.meta.Slices > maxJournalInt {
		return nil, fmt.Errorf("%w: snapshot declares %d slices", errJournalCorrupt, st.meta.Slices)
	}
	st.slices = make([]snapSlice, st.meta.Slices)
	for _, raw := range recs[1:] {
		r, err := decodeJournalRecord(raw)
		if err != nil {
			return nil, err
		}
		switch r.Tag {
		case jrecLevel:
			st.levels = append(st.levels, LevelStat{Fresh: r.Fresh, Digest: r.Digest})
		case jrecSlice:
			if r.Slice >= len(st.slices) {
				return nil, fmt.Errorf("%w: snapshot slice %d of %d", errJournalCorrupt, r.Slice, len(st.slices))
			}
			s := &st.slices[r.Slice]
			s.hasCkpt = r.Flags&sflagHasCkpt != 0
			s.everOwned = r.Flags&sflagEverOwned != 0
			s.ckptLevel = r.CkptLevel
			s.steps = r.Steps
			s.fresh = r.Fresh
			s.digest = r.Digest
			s.reassigns = r.Reassigns
			s.ckpt = slices.Clone(r.Body)
		case jrecRetained:
			st.chunks[chunkKey{level: r.Level, from: r.From, to: r.To}] = slices.Clone(r.Body)
		default:
			return nil, fmt.Errorf("%w: tag %d inside a snapshot", errJournalCorrupt, r.Tag)
		}
	}
	if len(st.levels) != st.meta.Levels || len(st.chunks) != st.meta.Chunks {
		return nil, fmt.Errorf("%w: snapshot declares %d levels/%d chunks, holds %d/%d",
			errJournalCorrupt, st.meta.Levels, st.meta.Chunks, len(st.levels), len(st.chunks))
	}
	return st, nil
}

// scanWAL reads wal-<seq>, tolerating (and truncating) a torn or
// undecodable tail: the returned records are the longest prefix that is
// both checksum-intact and content-decodable. A missing WAL file is an
// empty one — the crash may have hit between snapshot and WAL creation.
func (j *Journal) scanWAL(seq uint64) ([]journalRec, error) {
	path := walPath(j.dir, seq)
	f, err := os.Open(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	raws, validOff, tailErr := checkpoint.ScanSegment(f)
	f.Close()
	recs := make([]journalRec, 0, len(raws))
	goodOff := validOff
	if tailErr == nil {
		// Recompute the prefix offset only if a record fails to decode.
		goodOff = -1
	}
	for i, raw := range raws {
		r, err := decodeJournalRecord(raw)
		if err != nil {
			// Checksum held but content is garbage — keep the prefix and
			// truncate here, like a torn tail.
			tailErr = err
			goodOff = walPrefixLen(raws[:i])
			break
		}
		recs = append(recs, r)
	}
	if tailErr != nil {
		if goodOff < 0 {
			goodOff = validOff
		}
		j.scope.Counter("dist_journal_tail_truncated").Add(1)
		j.scope.Event("dist_journal_tail_truncated")
		if err := os.Truncate(path, goodOff); err != nil {
			return nil, fmt.Errorf("dist: truncating torn journal tail: %w", err)
		}
	}
	return recs, nil
}

// walPrefixLen computes the on-disk length of a WAL holding exactly these
// record payloads: magic header plus, per record, the uvarint length, the
// payload and the 32-byte checksum.
func walPrefixLen(raws [][]byte) int64 {
	n := int64(8) // len(segmentMagic)
	var lenBuf [binary.MaxVarintLen64]byte
	for _, raw := range raws {
		n += int64(binary.PutUvarint(lenBuf[:], uint64(len(raw)))) + int64(len(raw)) + 32
	}
	return n
}

// openWAL (re)opens the active WAL for appending. A fresh file gets the
// segment magic; an existing one (recovery continuing a truncated WAL) is
// appended to past its intact prefix.
func (j *Journal) openWAL() error {
	path := walPath(j.dir, j.seq)
	info, err := os.Stat(path)
	fresh := errors.Is(err, os.ErrNotExist) || (err == nil && info.Size() == 0)
	f, err := j.open(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND)
	if err != nil {
		return err
	}
	j.wal = f
	if fresh {
		w, err := checkpoint.NewWriter(f)
		if err != nil {
			f.Close()
			j.wal = nil
			return err
		}
		j.walW = w
	} else {
		j.walW = checkpoint.NewAppendWriter(f)
	}
	return nil
}

// append logs one mutation. A write failure degrades the journal to
// memory-only — counted and evented loudly, never surfaced to the barrier:
// the run keeps going, it just stops being crash-recoverable until the
// next successful snapshot re-establishes durability.
func (j *Journal) append(rec journalRec) {
	if j == nil || j.degraded || j.walW == nil {
		return
	}
	payload := rec.encode()
	if err := j.walW.Append(payload); err != nil {
		j.degrade("append", err)
		return
	}
	j.scope.Counter("dist_journal_appends").Add(1)
	j.scope.Counter("dist_journal_bytes").Add(int64(len(payload)) + 32)
}

// degrade marks the journal memory-only after a disk fault.
func (j *Journal) degrade(what string, err error) {
	j.degraded = true
	if j.wal != nil {
		j.wal.Close()
		j.wal = nil
		j.walW = nil
	}
	j.scope.Counter("dist_journal_errors").Add(1)
	j.scope.Gauge("dist_journal_degraded").Set(1)
	j.scope.Event("dist_journal_degraded")
}

// Degraded reports whether the journal has fallen back to memory-only.
func (j *Journal) Degraded() bool { return j != nil && j.degraded }

// snapshot atomically publishes the next snapshot from the given records
// and rotates the WAL. On success old snapshot/WAL pairs beyond keep-2 are
// garbage-collected and a degraded journal is re-established (the snapshot
// captured everything the dead WAL missed). On failure the journal keeps
// appending to the current WAL — replay then spans multiple levels, which
// recovery handles — unless that WAL is dead too, in which case it stays
// degraded.
func (j *Journal) snapshot(records [][]byte) error {
	if j == nil {
		return nil
	}
	next := j.seq + 1
	if err := j.writeAtomicSegment(snapPath(j.dir, next), records); err != nil {
		j.scope.Counter("dist_journal_errors").Add(1)
		j.scope.Event("dist_journal_snapshot_failed")
		if j.walW == nil && !j.degraded {
			// Recovery's own snapshot failed before any WAL was open for
			// this incarnation: keep appending to the WAL we recovered
			// from. Its replay is idempotent over the records a future
			// recovery re-applies, so extending it stays sound.
			if oerr := j.openWAL(); oerr != nil {
				j.degrade("reopen", oerr)
			}
		}
		return err
	}
	if j.wal != nil {
		j.wal.Close()
		j.wal = nil
		j.walW = nil
	}
	j.seq = next
	if err := j.openWAL(); err != nil {
		j.degrade("rotate", err)
	} else if j.degraded {
		j.degraded = false
		j.scope.Gauge("dist_journal_degraded").Set(0)
		j.scope.Event("dist_journal_recovered_durability")
	}
	j.scope.Counter("dist_journal_snapshots").Add(1)
	j.gc()
	return nil
}

// nextSeq is the sequence number the next snapshot will get.
func (j *Journal) nextSeq() uint64 {
	if j == nil {
		return 0
	}
	return j.seq + 1
}

// gc removes snapshot/WAL pairs older than keep-2.
func (j *Journal) gc() {
	if j.seq < 2 {
		return
	}
	floor := j.seq - 1
	seqs, err := j.snapshotSeqs()
	if err != nil {
		return
	}
	for _, s := range seqs {
		if s < floor {
			os.Remove(snapPath(j.dir, s))
			os.Remove(walPath(j.dir, s))
		}
	}
	// WALs can outlive their snapshot when a snapshot write failed; sweep
	// them by the same floor.
	if names, err := filepath.Glob(filepath.Join(j.dir, "wal-*.seg")); err == nil {
		for _, name := range names {
			var s uint64
			if _, err := fmt.Sscanf(filepath.Base(name), "wal-%d.seg", &s); err == nil && s < floor {
				os.Remove(name)
			}
		}
	}
}

// writeAtomicSegment publishes a segment file of the given records
// crash-safely through the journal's file hook: temp file, fsync, rename,
// directory fsync — the same discipline as checkpoint.WriteFileAtomic,
// reimplemented here because the hook must see every write (the disk-fault
// tests inject ENOSPC into exactly this path).
func (j *Journal) writeAtomicSegment(path string, records [][]byte) error {
	tmpName := path + ".tmp"
	tmp, err := j.open(tmpName, os.O_CREATE|os.O_TRUNC|os.O_WRONLY)
	if err != nil {
		return fmt.Errorf("dist: journal temp file: %w", err)
	}
	w, err := checkpoint.NewWriter(tmp)
	if err == nil {
		for _, rec := range records {
			if err = w.Append(rec); err != nil {
				break
			}
		}
	}
	if err == nil {
		err = tmp.Sync()
	}
	if err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return err
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("dist: journal rename: %w", err)
	}
	return syncJournalDir(j.dir)
}

// syncJournalDir fsyncs the journal directory so a completed rename
// survives power loss; filesystems that cannot sync directories degrade to
// rename-only atomicity.
func syncJournalDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("dist: open journal dir: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil && !errors.Is(err, errors.ErrUnsupported) {
		return fmt.Errorf("dist: fsync journal dir: %w", err)
	}
	return nil
}

// IsJournalCorrupt reports whether err marks a corrupt journal record.
func IsJournalCorrupt(err error) bool {
	return errors.Is(err, errJournalCorrupt) || errors.Is(err, checkpoint.ErrCorrupt)
}
