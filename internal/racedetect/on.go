//go:build race

package racedetect

// Enabled reports whether the race detector is instrumenting this build.
const Enabled = true
