//go:build race

package cluster

// raceDetector reports whether the tests run under -race, which slows
// dispatch enough to move wall-clock bounds.
const raceDetector = true
