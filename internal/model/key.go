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
