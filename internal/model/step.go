package model

// Allocation-lean helpers for the exploration hot path. PeekOp inspects a
// pending operation without building its argument; ConfigSlab detaches the
// few configurations that survive deduplication from the engine's reused
// unpack buffers (PackedCodec.UnpackInto) into one arena, so keeping a
// survivor costs no per-configuration slice allocation.

// OpPeeker is an optional extension of State: PeekOp returns the pending
// operation's kind and register without building the full Op. Pending's
// Arg field is the expensive part for write-poised states (protocols
// encode it into a fresh string), and most inspections — move
// enumeration, decided-checks, cover tests — need only the kind and
// register. The two forms must agree: PeekOp() == (Pending().Kind,
// Pending().Reg) always.
type OpPeeker interface {
	PeekOp() (OpKind, int)
}

// PeekOp returns the kind and register of s's pending operation, through
// OpPeeker when implemented and Pending otherwise.
func PeekOp(s State) (OpKind, int) {
	if p, ok := s.(OpPeeker); ok {
		return p.PeekOp()
	}
	op := s.Pending()
	return op.Kind, op.Reg
}

// Clone returns a deep copy of c with freshly allocated slices. Exploration
// hands out configurations backed by reused arenas that are only valid
// transiently (explore.Visit); callers that retain one past that window
// clone it first.
func (c Config) Clone() Config {
	states := make([]State, len(c.states))
	copy(states, c.states)
	regs := make([]Value, len(c.regs))
	copy(regs, c.regs)
	return Config{states: states, regs: regs}
}

// ConfigSlab is an append-only arena for detached Config copies: Clone
// copies a (possibly scratch-backed) configuration's slices into the
// slab's backing arrays and returns a Config aliasing them. Clones stay
// valid across slab growth (they keep their windows into the old backing
// array) and die together at Reset. The zero value is ready; one slab
// serves one goroutine.
type ConfigSlab struct {
	states []State
	regs   []Value
}

// Clone detaches c into the slab.
func (a *ConfigSlab) Clone(c Config) Config {
	ns := len(a.states)
	a.states = append(a.states, c.states...)
	nr := len(a.regs)
	a.regs = append(a.regs, c.regs...)
	return Config{
		states: a.states[ns:len(a.states):len(a.states)],
		regs:   a.regs[nr:len(a.regs):len(a.regs)],
	}
}

// Reset retires every clone at once, keeping the backing arrays for
// reuse. References are cleared so retired states can be collected; the
// caller asserts no clone from before the Reset is still live.
func (a *ConfigSlab) Reset() {
	clear(a.states)
	a.states = a.states[:0]
	clear(a.regs)
	a.regs = a.regs[:0]
}
