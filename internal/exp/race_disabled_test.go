//go:build !race

package exp_test

// raceEnabled reports whether the race detector is active in this build
// (see race_enabled_test.go).
const raceEnabled = false
