//go:build !race

package serve

// raceEnabled reports whether the race detector is active in this build
// (see race_enabled_test.go).
const raceEnabled = false
