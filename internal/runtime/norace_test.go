//go:build !race

package runtime

const raceDetector = false
