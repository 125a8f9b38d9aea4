package main

import (
	"math"
	"sort"
)

// median returns the median of xs (0 for none).
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

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(xs, n=4) computes them (its default exclusive
// method), so the spreads printed here match the ones a reader recomputes.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

// tail returns the highest percentile of xs that has at least ten samples
// beyond it, and that percentile. With fewer than 40 samples there is no
// such tail and ok is false.
func tail(xs []float64) (v, pct float64, ok bool) {
	n := len(xs)
	if n < 40 {
		return 0, 0, false
	}
	s := sorted(xs)
	return s[n-11], 100 * float64(n-10) / float64(n), true
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// le reports a <= b allowing a relative rounding slack, for bounds checked
// on floating-point outputs.
func le(a, b float64) bool { return a <= b+1e-9*math.Max(math.Abs(a), math.Abs(b)) }
