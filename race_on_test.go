//go:build race

package sre

// raceDetector reports whether the tests run under the race detector,
// which slows the BDD work about tenfold.
const raceDetector = true
