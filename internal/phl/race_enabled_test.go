//go:build race

package phl

// raceEnabled reports whether the race detector is active in this build;
// its instrumentation allocates, so the allocation gate skips itself.
const raceEnabled = true
