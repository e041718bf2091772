//go:build !race

// Package racedetect tells tests whether the race detector instruments the
// build. Assertions on allocation counts and wall-clock ratios skip under
// -race: instrumentation allocates, sync.Pool sheds items at random, and
// concurrent paths slow down far more than synchronous ones.
package racedetect

// Enabled reports whether the race detector is instrumenting this build.
const Enabled = false
