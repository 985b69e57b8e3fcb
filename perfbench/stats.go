package main

import (
	"math"
	"sort"
)

// tailLadder is the set of percentiles a tail latency may be reported at.
// A fixed ladder keeps the reported percentile the same across commits
// for a given amount of work, so two runs compare like with like.
var tailLadder = []float64{50, 75, 90, 95, 99, 99.9}

// minBeyond is how many samples must lie beyond a reported percentile:
// fewer, and the "tail" is a handful of outliers rather than a measurement.
const minBeyond = 10

// percentile returns the nearest-rank p-th percentile of samples (the
// value at rank ceil(p/100 * n), 1-based) and how many samples lie beyond
// that rank. It sorts a copy; samples is left untouched.
func percentile(samples []float64, p float64) (value float64, beyond int) {
	n := len(samples)
	if n == 0 {
		return 0, 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	// The epsilon keeps binary rounding (99.9/100 is not exact) from
	// pushing an exact rank up by one.
	rank := int(math.Ceil(p*float64(n)/100 - 1e-9))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return s[rank-1], n - rank
}

// tail picks the highest ladder percentile with at least minBeyond
// samples beyond it and returns that percentile, its value and the sample
// count. Below the ladder's reach (fewer than about 20 samples) it falls
// back to the median, which is all such a sample supports.
func tail(samples []float64) (p, value float64, n int) {
	p = tailLadder[0]
	for _, q := range tailLadder {
		if _, beyond := percentile(samples, q); beyond >= minBeyond {
			p = q
		}
	}
	value, _ = percentile(samples, p)
	return p, value, len(samples)
}

// median is the 50th percentile (nearest rank), 0 for no samples.
func median(samples []float64) float64 {
	v, _ := percentile(samples, 50)
	return v
}
