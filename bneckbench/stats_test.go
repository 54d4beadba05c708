package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = float64(i + 1)
	}
	return v
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		p    float64
		want float64
		ok   bool
	}{
		{1000, 99, 990, true},     // exactly ten above
		{999, 99, 990, false},     // nine above
		{2000, 99, 1980, true},    // twenty above
		{2000, 99.9, 1998, false}, // two above
		{20, 50, 10, true},
		{19, 50, 10, false},
		{1, 50, 1, false},
	} {
		got, ok := percentile(seq(tc.n), tc.p)
		if got != tc.want || ok != tc.ok {
			t.Errorf("percentile(1..%d, %g) = %g, %v; want %g, %v", tc.n, tc.p, got, ok, tc.want, tc.ok)
		}
	}
	if _, ok := percentile(nil, 50); ok {
		t.Error("empty sample supports a median")
	}
}

func TestHighestPercentile(t *testing.T) {
	for n, want := range map[int]float64{5: 0, 20: 50, 100: 90, 1000: 99, 2500: 99, 10000: 99.9, 100000: 99.99} {
		if got := highestPercentile(n); got != want {
			t.Errorf("highestPercentile(%d) = %g, want %g", n, got, want)
		}
	}
}

// The expected quartiles are what Python's statistics.quantiles(v, n=4)
// returns for the same values.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		v    []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1, 2, 3, 4, 5}, [3]float64{1.5, 3, 4.5}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{3, 3, 3}, [3]float64{3, 3, 3}},
	} {
		q1, q2, q3 := quartiles(tc.v)
		got := [3]float64{q1, q2, q3}
		for i := range got {
			if math.Abs(got[i]-tc.want[i]) > 1e-12 {
				t.Errorf("quartiles(%v) = %v, want %v", tc.v, got, tc.want)
				break
			}
		}
	}
	if got := iqr(seq(10)); got != 5.5 {
		t.Errorf("iqr(1..10) = %g, want 5.5", got)
	}
	if got := relSpread(seq(10)); got != 1 {
		t.Errorf("relSpread(1..10) = %g, want 1", got)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median %g", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median %g", got)
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing is a number")
	}
}
