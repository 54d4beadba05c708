package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a percentile before the
// benchmark reports it: a p99 of 500 samples rests on five values and says
// little about the tail.
const minBeyond = 10

// sortedCopy returns the values in ascending order without touching v.
func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// median returns the middle value of v (the mean of the two middle values
// for an even count), or NaN for an empty slice.
func median(v []float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := sortedCopy(v)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// quartiles returns the three cut points dividing v into quarters, computed
// exactly as Python's statistics.quantiles(v, n=4) does with its default
// exclusive method, so the spreads this program reports match the ones an
// external checker computes from the same values. A single value is its own
// quartiles.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := sortedCopy(v)
	switch len(s) {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return s[0], s[0], s[0]
	}
	m := len(s) + 1
	cut := func(i int) float64 {
		// Python clamps j to [1, n-1] and then interpolates (or, for tiny
		// samples, extrapolates) with the clamped index.
		j := min(max(i*m/4, 1), len(s)-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// iqr returns the distance between the first and third quartile of v.
func iqr(v []float64) float64 {
	q1, _, q3 := quartiles(v)
	return q3 - q1
}

// relSpread returns the interquartile range of v as a share of its median:
// the figure the benchmark's bounds are compared against.
func relSpread(v []float64) float64 {
	m := median(v)
	if m == 0 {
		return 0
	}
	return math.Abs(iqr(v) / m)
}

// rank returns the 1-based nearest rank of the p-th percentile (0 < p ≤ 100)
// in n sorted values. The epsilon keeps 99.9% of 10000 at rank 9990 despite
// rounding.
func rank(n int, p float64) int {
	return min(max(int(math.Ceil(p*float64(n)/100-1e-9)), 1), n)
}

// percentile returns the nearest-rank p-th percentile of an ascending slice
// and whether at least minBeyond samples lie above it.
func percentile(sorted []float64, p float64) (float64, bool) {
	n := len(sorted)
	if n == 0 {
		return math.NaN(), false
	}
	k := rank(n, p)
	return sorted[k-1], n-k >= minBeyond
}

// tailPercentiles are the percentiles the report considers, highest last.
var tailPercentiles = []float64{50, 90, 99, 99.9, 99.99}

// highestPercentile returns the highest tail percentile that a sample of n
// values supports (at least minBeyond values above it), or 0 when even the
// median does not qualify.
func highestPercentile(n int) float64 {
	best := 0.0
	for _, p := range tailPercentiles {
		if n > 0 && n-rank(n, p) >= minBeyond {
			best = p
		}
	}
	return best
}
