package main

import (
	"math"
	"sort"
)

// summary is one reported metric: the value is the median of n samples
// (or the single measurement when n == 1) with the extremes beside it.
type summary struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
}

// summarize reports the median of xs with its sample count and range.
func summarize(xs []float64, unit string) summary {
	if len(xs) == 0 {
		return summary{Unit: unit}
	}
	s := sortedCopy(xs)
	return summary{Value: medianSorted(s), Unit: unit, N: len(s), Min: s[0], Max: s[len(s)-1]}
}

// single wraps one measurement.
func single(v float64, unit string) summary {
	return summary{Value: v, Unit: unit, N: 1, Min: v, Max: v}
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func medianSorted(s []float64) float64 {
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func median(xs []float64) float64 { return medianSorted(sortedCopy(xs)) }

// percentileSorted is the nearest-rank percentile of an ascending slice:
// the smallest sample with at least p percent of the samples at or below it.
func percentileSorted(s []float64, p float64) float64 {
	if len(s) == 0 {
		return 0
	}
	return s[len(s)-1-samplesBeyond(len(s), p)]
}

// samplesBeyond is how many of n samples lie strictly beyond the
// nearest-rank p-th percentile.
func samplesBeyond(n int, p float64) int {
	rank := int(math.Ceil(p*float64(n)/100 - 1e-9)) // 99.9·10000/100 is not exactly 9990
	if rank < 1 {
		rank = 1
	}
	return n - rank
}

// tailLadder are the percentiles a latency tail may be reported at.
var tailLadder = []float64{99.9, 99, 95, 90}

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

// highestPercentile picks the highest ladder percentile that still has
// minBeyond samples beyond it; ok is false when even the lowest does not.
func highestPercentile(n int) (p float64, ok bool) {
	for _, p := range tailLadder {
		if samplesBeyond(n, p) >= minBeyond {
			return p, true
		}
	}
	return tailLadder[len(tailLadder)-1], false
}

// quartileSpread is the distance between the first and third quartile as a
// share of the median, with the quartiles Python's
// statistics.quantiles(values, n=4) returns (exclusive method) — the
// statistic the driver judges steadiness by.
func quartileSpread(xs []float64) float64 {
	s := sortedCopy(xs)
	n := len(s)
	if n < 2 {
		return 0
	}
	q := func(k int) float64 {
		j, delta := k*(n+1)/4, k*(n+1)%4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	med := medianSorted(s)
	if med == 0 {
		return 0
	}
	return math.Abs((q(3) - q(1)) / med)
}

// worsening is the share of base by which cur is worse: positive when cur
// moved against the metric's direction, negative when it improved.
func worsening(better string, base, cur float64) float64 {
	if base == 0 {
		if cur == base {
			return 0
		}
		return math.Inf(1)
	}
	if better == "higher" {
		return (base - cur) / math.Abs(base)
	}
	return (cur - base) / math.Abs(base)
}

// withinBound reports whether cur is no worse than base by more than
// bound, a share of base.
func withinBound(better string, base, cur, bound float64) bool {
	return worsening(better, base, cur) <= bound
}

// failedWithinBound is the rule for failed operations: any increase of the
// failed share is a regression, whatever its size.
func failedWithinBound(baseFailed, baseAttempted, curFailed, curAttempted int) bool {
	if baseAttempted == 0 || curAttempted == 0 {
		return false
	}
	return float64(curFailed)/float64(curAttempted) <= float64(baseFailed)/float64(baseAttempted)
}
