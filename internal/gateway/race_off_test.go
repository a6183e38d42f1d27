//go:build !race

package gateway

// raceEnabled reports whether the race detector is compiled in.
const raceEnabled = false
