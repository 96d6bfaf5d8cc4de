//go:build !race

package paillier

// raceEnabled reports whether the race detector instruments this build.
const raceEnabled = false
