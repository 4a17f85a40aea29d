package main

import (
	"math"
	"testing"
)

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// Expected values from Python's statistics.quantiles(xs, n=4).
	cases := []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{1, 2, 3}, 1, 2, 3},
		{[]float64{3, 1, 4, 1, 5}, 1, 3, 4.5},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{2.5, 0.5, 7, 3, 3, 9, 1.25}, 1.25, 3, 7},
		{[]float64{42}, 42, 42, 42},
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q2-c.q2) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
	if q1, _, _ := quartiles(nil); !math.IsNaN(q1) {
		t.Errorf("quartiles(nil) = %v, want NaN", q1)
	}
}

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
		{[]float64{7}, 7},
	} {
		if got := median(c.xs); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
	xs := []float64{3, 1, 2}
	median(xs)
	if xs[0] != 3 {
		t.Error("median reordered its input")
	}
}

func TestRelSpread(t *testing.T) {
	if got := relSpread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-5.5/5.5) > 1e-12 {
		t.Errorf("relSpread = %v, want 1", got)
	}
	if got := relSpread([]float64{-2, -2, -2}); got != 0 {
		t.Errorf("relSpread of equal values = %v, want 0", got)
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]uint64, 100)
	for i := range xs {
		xs[i] = uint64(100 - i) // 100..1, unsorted
	}
	for _, c := range []struct {
		q    float64
		want uint64
	}{{0.5, 50}, {0.99, 99}, {1, 100}, {0.001, 1}} {
		if got := percentileU64(append([]uint64(nil), xs...), c.q); got != c.want {
			t.Errorf("p%v = %d, want %d", c.q*100, got, c.want)
		}
	}
	if got := percentileU64([]uint64{7, 3}, 0.99); got != 7 {
		t.Errorf("p99 of two = %d, want 7", got)
	}
	if got := percentileU64(nil, 0.5); got != 0 {
		t.Errorf("percentile of none = %d, want 0", got)
	}
}
