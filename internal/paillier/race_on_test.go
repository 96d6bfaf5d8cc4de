//go:build race

package paillier

// raceEnabled reports whether the race detector instruments this build; its
// bookkeeping adds allocations that allocation bounds must not count.
const raceEnabled = true
