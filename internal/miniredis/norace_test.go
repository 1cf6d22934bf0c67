//go:build !race

package miniredis

const raceDetector = false
