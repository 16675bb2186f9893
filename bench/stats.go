package main

import (
	"math"
	"sort"
)

// median returns the middle value of xs (mean of the two middle values
// for an even count), or 0 for no samples. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// percentile returns the nearest-rank p-th percentile (0 < p ≤ 100) of
// xs: the smallest sample with at least p% of the samples at or below it.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	rank := int(math.Ceil(p/100*float64(len(s)) - 1e-9)) // 99.9 % of 10000 is 9990, whatever the floats say
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// tailResolved reports whether n samples leave at least ten above their
// p-th percentile — p99 from 1,000 samples on. Below that the percentile
// is a few outliers' luck, not a measurement.
func tailResolved(n int, p float64) bool {
	return float64(n)*(100-p) >= 1000-1e-6 // 0.1 % of 10000 is 10, whatever the floats say
}

// cutPoint returns the i-th of the n−1 cut points that divide xs into n
// groups of equal probability, as Python's statistics.quantiles(xs, n=n)
// computes them (the "exclusive" method, which the acceptance check
// uses). It needs at least two samples.
func cutPoint(xs []float64, i, n int) float64 {
	s := sorted(xs)
	ld := len(s)
	if ld < 2 {
		return median(s)
	}
	j := min(max(i*(ld+1)/n, 1), ld-1)
	delta := i*(ld+1) - j*n
	return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / float64(n)
}

// iqrOverMedian is the run-to-run spread the acceptance check computes:
// the distance between the first and third quartile as a share of the
// median.
func iqrOverMedian(xs []float64) float64 {
	m := median(xs)
	if m == 0 {
		return 0
	}
	return (cutPoint(xs, 3, 4) - cutPoint(xs, 1, 4)) / math.Abs(m)
}
