//go:build !race

package cpu

// raceDetector reports whether the tests run under the race detector.
const raceDetector = false
