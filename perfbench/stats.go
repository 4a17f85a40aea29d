package main

import (
	"math"
	"sort"
)

// sorted returns a sorted copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quartiles returns the three cut points of xs the way Python's
// statistics.quantiles(xs, n=4) computes them (the default "exclusive"
// method), so the spreads printed here match the ones an external
// checker derives from the same values. A single value is its own
// quartiles; an empty slice yields NaNs.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	d := sorted(xs)
	switch len(d) {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return d[0], d[0], d[0]
	}
	const n = 4
	m := len(d) + 1
	var out [n - 1]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		j = max(1, min(j, len(d)-1))
		delta := float64(i*m - j*n)
		out[i-1] = (d[j-1]*(n-delta) + d[j]*delta) / n
	}
	return out[0], out[1], out[2]
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count; NaN for none).
func median(xs []float64) float64 {
	d := sorted(xs)
	if len(d) == 0 {
		return math.NaN()
	}
	if len(d)%2 == 1 {
		return d[len(d)/2]
	}
	return (d[len(d)/2-1] + d[len(d)/2]) / 2
}

// relSpread is the interquartile distance of xs as a share of its
// median's magnitude (0 when the median is 0 and the values agree).
func relSpread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		if q3 == q1 {
			return 0
		}
		return math.Inf(1)
	}
	return (q3 - q1) / math.Abs(q2)
}

// percentileU64 returns the nearest-rank q-quantile (0 < q <= 1) of xs,
// sorting xs in place; 0 for an empty slice. Nearest rank keeps the
// result an observed value, so simulated-cycle percentiles stay exact
// integers.
func percentileU64(xs []uint64, q float64) uint64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
	rank := int(math.Ceil(q * float64(len(xs))))
	rank = max(1, min(rank, len(xs)))
	return xs[rank-1]
}
