package main

import (
	"math"
	"sort"
)

// rank is how many of n ascending samples lie at or below the q-th
// percentile (q in [0,100]) by nearest rank. The tolerance keeps
// products like 0.9*100 = 90.00000000000001 from rounding up a rank.
func rank(n int, q float64) int {
	return min(max(int(math.Ceil(q/100*float64(n)-1e-9)), 1), n)
}

// percentile returns the q-th percentile of an ascending sample by
// nearest rank, or 0 for an empty one.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(len(sorted), q)-1]
}

// median sorts xs in place and returns its 50th percentile.
func median(xs []float64) float64 {
	sort.Float64s(xs)
	return percentile(xs, 50)
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

func mean(xs []float64) float64 { return ratio(sum(xs), float64(len(xs))) }

// tailLadder is the percentiles a latency report may quote beyond the
// median, lowest first.
var tailLadder = []float64{90, 99, 99.9, 99.99}

// supported reports whether a sample of n has at least ten values
// beyond its q-th percentile — the floor under which a tail
// percentile is an anecdote about a handful of requests.
func supported(n int, q float64) bool { return n > 0 && n-rank(n, q) >= 10 }

// pickTail returns the highest percentile of tailLadder that a sample
// of n supports, or 50 when even p90 has fewer than ten samples
// beyond it.
func pickTail(n int) float64 {
	best := 50.0
	for _, q := range tailLadder {
		if supported(n, q) {
			best = q
		}
	}
	return best
}

// tailOrZero is the q-th percentile when the sample supports it, else
// 0: an unsupported tail is reported as absent, not as a number.
func tailOrZero(sorted []float64, q float64) float64 {
	if !supported(len(sorted), q) {
		return 0
	}
	return percentile(sorted, q)
}

// quartiles returns the first, second and third quartile of xs as
// Python's statistics.quantiles(xs, n=4) computes them (the default
// "exclusive" method), so a spread judged here is the spread the
// acceptance procedure judges. It needs at least two values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	data := append([]float64(nil), xs...)
	sort.Float64s(data)
	ld := len(data)
	m := ld + 1
	cut := func(i int) float64 {
		j := min(max(i*m/4, 1), ld-1)
		delta := float64(i*m - j*4)
		return (data[j-1]*(4-delta) + data[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread is the interquartile distance of xs as a share of its median.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(q2)
}
