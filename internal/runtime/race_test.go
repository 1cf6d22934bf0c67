//go:build race

package runtime

// raceDetector is whether the tests run under the race detector, where
// sync.Pool drops a random share of what is put back: an allocation count
// that goes through a pool (a wide group's update slice at its receiver)
// varies from run to run.
const raceDetector = true
