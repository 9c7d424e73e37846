package main

import (
	"fmt"
	"math"
	"sort"
)

// quantile is the exact nearest-rank q-quantile of sorted (ascending): the
// smallest sample with at least q·n samples at or below it. It is always a
// sample, never a bucket midpoint or an interpolation, so two runs that
// differ by one slow window report different numbers.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(q*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return sorted[i]
}

// beyond counts the samples ranked above the nearest-rank q-quantile.
func beyond(n int, q float64) int {
	if n == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	return n - 1 - i
}

// tailLadder is the percentile ladder tailPercentile climbs.
var tailLadder = []float64{0.9999, 0.999, 0.99, 0.9, 0.5}

// tailPercentile returns the highest ladder percentile with at least ten
// samples beyond it — the highest tail a sample of n supports — or 0 when
// even the median has fewer than ten above it.
func tailPercentile(n int) float64 {
	for _, q := range tailLadder {
		if beyond(n, q) >= 10 {
			return q
		}
	}
	return 0
}

// sortedCopy returns xs sorted ascending, leaving xs untouched.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median is the middle sample of xs, or the mean of the two middle samples
// when the count is even — Python's statistics.median, which spreads and
// paired comparisons computed in Python also use.
func median(xs []float64) float64 {
	s := sortedCopy(xs)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles reproduces Python's statistics.quantiles(xs, n=4) with its
// default "exclusive" method: the cut points the paired-run verdict and the
// benchmark's acceptance check both use.
func quartiles(xs []float64) (q1, q2, q3 float64, err error) {
	s := sortedCopy(xs)
	ld := len(s)
	if ld < 2 {
		return 0, 0, 0, fmt.Errorf("quartiles need at least 2 values, got %d", ld)
	}
	const n = 4
	m := ld + 1
	var out [3]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		out[i-1] = (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return out[0], out[1], out[2], nil
}

// spread is the interquartile distance as a share of the median — the
// run-to-run noise a metric's bound has to exceed.
func spread(xs []float64) (float64, error) {
	q1, _, q3, err := quartiles(xs)
	if err != nil {
		return 0, err
	}
	return (q3 - q1) / math.Abs(median(xs)), nil
}
