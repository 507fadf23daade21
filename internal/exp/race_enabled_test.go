//go:build race

package exp_test

// raceEnabled reports whether the race detector is active in this build.
// The detector slows methods unevenly, so TestPaperOrdering, whose
// assertions are on relative query times, skips itself.
const raceEnabled = true
