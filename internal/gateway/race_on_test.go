//go:build race

package gateway

// raceEnabled reports whether the race detector is compiled in. The
// allocation gate skips under -race: instrumentation adds allocations
// that have nothing to do with the proxy hop.
const raceEnabled = true
