//go:build race

package bench

// raceDetector is whether the tests run under the race detector, where
// sync.Pool drops a random share of what is put back: an allocation count
// that goes through the codec's pools varies from run to run.
const raceDetector = true
