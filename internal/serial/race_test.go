//go:build race

package serial

// raceDetector is whether the tests run under the race detector, where
// sync.Pool drops a random share of what is put back: an allocation count
// that goes through the scratch pool varies from run to run.
const raceDetector = true
