//go:build !race

package serial

const raceDetector = false
