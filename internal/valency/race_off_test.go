//go:build !race

package valency

// raceEnabled reports whether the race detector is compiled in: alloc-gate
// tests skip under it because instrumentation inflates alloc counts, and
// the differential batch test shrinks its largest searches.
const raceEnabled = false
