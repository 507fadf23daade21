//go:build race

package serve

// raceEnabled reports whether the race detector is active in this build.
// The race-detector build of sync.Pool drops Puts at random, so pooled body
// buffers are re-made mid-measurement and TestKNNHitAllocs skips itself.
const raceEnabled = true
