//go:build race

package miniredis

// raceDetector is whether the tests run under the race detector, where
// sync.Pool drops a random share of what is put back: a count of Do's
// allocations varies from run to run.
const raceDetector = true
