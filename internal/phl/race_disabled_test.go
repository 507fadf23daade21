//go:build !race

package phl

// raceEnabled reports whether the race detector is active in this build
// (see race_enabled_test.go).
const raceEnabled = false
