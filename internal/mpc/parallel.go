package mpc

import "sync"

// parallelMinElems is the batch size below which parallelFor runs inline.
// A Beaver recombination costs ~0.25 µs per element and starting and joining
// a goroutine a few µs plus a cold cache for the second half, so on the
// 2-vCPU reference box BenchmarkParallelFor reads, inline vs split in two:
// 1 024 elements 272 vs 265 µs (nothing gained), 2 048 elements 539 vs
// 439 µs, 4 096 elements 1 047 vs 734 µs.  Splitting starts where it wins
// clearly.
const parallelMinElems = 2048

// parallelFor runs body(lo, hi) over a partition of [0, n) into one
// contiguous block per worker, the caller's goroutine taking the first
// block; small batches and workers <= 1 run inline.  Bodies must be
// independent across blocks and must not touch mutable engine state: the
// pure share arithmetic (Add, Sub, beaver, ...) qualifies, the interactive
// primitives do not.
func parallelFor(n, workers int, body func(lo, hi int)) {
	if workers <= 1 || n < parallelMinElems {
		body(0, n)
		return
	}
	block := (n + workers - 1) / workers
	var wg sync.WaitGroup
	for lo := block; lo < n; lo += block {
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			body(lo, hi)
		}(lo, min(lo+block, n))
	}
	body(0, block)
	wg.Wait()
}
