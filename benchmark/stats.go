package main

import (
	"math"
	"slices"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// samples sorted ascending: the smallest sample with at least p percent of
// the samples at or below it. 0 when there are no samples.
func percentile(sorted []int64, p float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	rank = min(max(rank, 1), len(sorted))
	return sorted[rank-1]
}

// tailPercentile returns the highest percentile that still has at least ten
// samples beyond it, and its value: with n sorted samples that is the
// (n-10)-th order statistic, percentile 100*(n-10)/n. A tail claimed from
// fewer than ten samples is one or two outliers, not a percentile. ok is
// false when n <= 10, where no percentile qualifies.
func tailPercentile(sorted []int64) (p float64, v int64, ok bool) {
	n := len(sorted)
	if n <= 10 {
		return 0, 0, false
	}
	return 100 * float64(n-10) / float64(n), sorted[n-11], true
}

// medianFloat returns the median of v (mean of the middle pair when even);
// 0 when empty. v is sorted in place.
func medianFloat(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	slices.Sort(v)
	m := len(v) / 2
	if len(v)%2 == 1 {
		return v[m]
	}
	return (v[m-1] + v[m]) / 2
}

// us converts nanoseconds to microseconds.
func us(ns int64) float64 { return float64(ns) / 1e3 }
