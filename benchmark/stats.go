package main

import (
	"sort"
)

// percentile returns the nearest-rank p-quantile (0 < p <= 1) of sorted,
// which must be ascending and non-empty: the smallest sample with at least
// a share p of the samples at or below it.
func percentile(sorted []int64, p float64) int64 {
	n := len(sorted)
	rank := int(p*float64(n) + 0.999999999)
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1]
}

// sortedCopy returns xs ascending without touching the original.
func sortedCopy(xs []int64) []int64 {
	out := append([]int64(nil), xs...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// medianFloat returns the median of xs (mean of the middle two when even).
func medianFloat(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// ratio is a/b, or 0 when b is 0: a share or per-unit figure for a layer
// the workload bypasses reads 0, never NaN.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
