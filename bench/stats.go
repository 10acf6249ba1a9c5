package main

import (
	"math"
	"sort"
)

// Percentile rule. Every timing percentile in this benchmark is a
// nearest-rank percentile, and a run states how many samples stand
// behind it together with the highest percentile that still has at
// least minTail samples beyond it — a p80 over 20 samples rests on
// four, and the report says so.

// minTail is how many samples must lie beyond a percentile for it to
// count as resolved.
const minTail = 10

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// nearestRank returns the p-th percentile (0 < p <= 100) of xs by the
// nearest-rank rule: the smallest sample with at least p% of the
// samples at or below it. It returns NaN for an empty input.
func nearestRank(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	return s[min(max(rank(p, len(s)), 1), len(s))-1]
}

// rank is the 1-based nearest rank of percentile p among n samples.
// p·n is exact for whole percentiles, so a rank that should be whole
// is not pushed up by rounding in p/100.
func rank(p float64, n int) int {
	return int(math.Ceil(p * float64(n) / 100))
}

// resolvedPercentile returns the highest whole percentile of n samples
// that has at least minTail samples beyond its nearest rank, or 0 when
// n is too small for any.
func resolvedPercentile(n int) int {
	for p := 99; p >= 1; p-- {
		if n-rank(float64(p), n) >= minTail {
			return p
		}
	}
	return 0
}

// median is the middle sample (the mean of the two middle samples for
// an even count); NaN for an empty input.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles of xs exactly as
// Python's statistics.quantiles(xs, n=4) computes them (the default
// "exclusive" method), so a spread computed here matches one computed
// from the same values with the standard library there. A single
// sample is its own quartiles.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	n := len(s)
	switch n {
	case 0:
		return math.NaN(), math.NaN()
	case 1:
		return s[0], s[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

// spread is the interquartile distance as a share of the median.
func spread(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	m := median(xs)
	if m == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(m)
}
