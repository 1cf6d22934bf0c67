//go:build !race

package bench

const raceDetector = false
