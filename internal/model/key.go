package model

// Key separators: keySepField terminates each state key and each register
// value; keySepSection divides the state section from the register section.
// Both are control bytes no protocol legitimately emits, so the encoding is
// prefix-free per field and two configurations share a key iff they share
// every state key and every register value.
const (
	keySepField   = '\x1f'
	keySepSection = '\x1e'
)

// AppendKey appends the configuration's identity bytes to dst and returns
// the extended slice: each process state's AppendKey bytes, then every
// register's contents, framed by the separators above. Equal bytes must
// mean behaviourally equivalent configurations and distinct bytes distinct
// ones; the exploration engine's fingerprint dedup rests on that contract.
// Callers on a hot path pass reused scratch (dst[:0]) so no key is
// allocated per configuration.
func (c Config) AppendKey(dst []byte) []byte {
	for _, s := range c.states {
		dst = s.AppendKey(dst)
		dst = append(dst, keySepField)
	}
	dst = append(dst, keySepSection)
	for _, v := range c.regs {
		dst = append(dst, v...)
		dst = append(dst, keySepField)
	}
	return dst
}

// Canonicaliser is a state identity coarser than Config.AppendKey: it
// appends bytes that identify c only up to a protocol's bisimulation (for
// example DiskRace's ballot renumbering), so exhaustive search of an
// unbounded-state protocol can terminate. explore.Options.Identity carries
// one; nil there means the exact identity, Config.AppendKey.
type Canonicaliser interface {
	// AppendCanonicalKey appends c's canonical key to dst and returns the
	// extended slice. It must be safe for concurrent use.
	AppendCanonicalKey(dst []byte, c Config) []byte
}

// PackedCanonicaliser is a Canonicaliser that can also key packed records
// of a codec without building their configurations. The exploration
// kernels type-assert for it once per codec and fall back to unpacking
// records when it is absent.
type PackedCanonicaliser interface {
	Canonicaliser
	// NewPackedKeyer returns a keyer for records of pc. Dictionary ids
	// serve the keyer only as indices of its own caches: its output is
	// the canonical key, whatever order pc interned states in.
	NewPackedKeyer(pc *PackedCodec) PackedKeyer
}

// PackedKeyer appends canonical keys straight from packed records of one
// codec. Not safe for concurrent use; each goroutine holds its own.
type PackedKeyer interface {
	// AppendPackedKey appends to dst exactly the bytes
	// AppendCanonicalKey appends for the configuration words encodes, and
	// returns the extended slice. words must be a live record of the
	// keyer's codec; an id the codec never interned panics, as it does in
	// PackedStepper.
	AppendPackedKey(dst []byte, words []uint64) []byte
}
