package perf

import (
	"fmt"
	"math"
	"sort"
)

// Percentile returns the q-th percentile (q in [0,100]) of xs by the
// nearest-rank method on a sorted copy, or 0 for an empty sample. It
// is the latency-percentile helper behind the request-serving stats
// tables (core experiments E23, E24, E26 and E29).
func Percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if q <= 0 {
		return sorted[0]
	}
	rank := int(math.Ceil(q/100*float64(len(sorted)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}

// Summary holds descriptive statistics of a sample of measurements.
type Summary struct {
	N      int
	Mean   float64
	Median float64
	Min    float64
	Max    float64
	Stddev float64
	// CI95 is the half-width of the 95% confidence interval of the mean
	// under the normal approximation.
	CI95 float64
}

// Summarize computes descriptive statistics; it returns a zero Summary
// for an empty sample.
func Summarize(xs []float64) Summary {
	n := len(xs)
	if n == 0 {
		return Summary{}
	}
	s := Summary{N: n, Min: xs[0], Max: xs[0]}
	var sum float64
	for _, x := range xs {
		sum += x
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	s.Mean = sum / float64(n)
	var sq float64
	for _, x := range xs {
		d := x - s.Mean
		sq += d * d
	}
	if n > 1 {
		s.Stddev = math.Sqrt(sq / float64(n-1))
		s.CI95 = 1.96 * s.Stddev / math.Sqrt(float64(n))
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if n%2 == 1 {
		s.Median = sorted[n/2]
	} else {
		s.Median = (sorted[n/2-1] + sorted[n/2]) / 2
	}
	return s
}

// GeoMean returns the geometric mean of strictly positive values — the
// correct aggregate for running-time *ratios* across heterogeneous
// workloads (an arithmetic mean of ratios over-weights slow instances).
// It returns 0 for an empty input and NaN if any value is non-positive.
func GeoMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var logSum float64
	for _, x := range xs {
		if x <= 0 {
			return math.NaN()
		}
		logSum += math.Log(x)
	}
	return math.Exp(logSum / float64(len(xs)))
}

// Speedup is T1/Tp for a strong-scaling measurement.
func Speedup(t1, tp float64) float64 {
	if tp == 0 {
		return 0
	}
	return t1 / tp
}

// Efficiency is Speedup/p, the fraction of linear speedup achieved.
func Efficiency(t1, tp float64, p int) float64 {
	if p <= 0 {
		return 0
	}
	return Speedup(t1, tp) / float64(p)
}

// KarpFlatt computes the experimentally determined serial fraction
// e = (1/s - 1/p) / (1 - 1/p) from speedup s on p processors (Karp &
// Flatt 1990). A rising e over p diagnoses growing parallel overhead, a
// constant e diagnoses an inherently serial fraction — the methodology's
// standard differential diagnosis for poor scaling. Returns NaN for p<2
// or s<=0.
func KarpFlatt(speedup float64, p int) float64 {
	if p < 2 || speedup <= 0 {
		return math.NaN()
	}
	pf := float64(p)
	return (1/speedup - 1/pf) / (1 - 1/pf)
}

// Gustafson predicts scaled speedup p + (1-p)·f for weak scaling.
func Gustafson(serialFraction float64, p int) float64 {
	pf := float64(p)
	return pf + (1-pf)*serialFraction
}

// Throughput converts (items, seconds) to items/second (0 when seconds
// is 0).
func Throughput(items int, seconds float64) float64 {
	if seconds <= 0 {
		return 0
	}
	return float64(items) / seconds
}

// FormatDuration renders seconds compactly for tables (e.g. "1.23ms").
// Negative values keep their sign with the magnitude's unit — they show
// up when a corrected latency is differenced against an uncorrected
// one, and a raw "-1.5e+06µs" would garble the table.
func FormatDuration(seconds float64) string {
	if seconds < 0 {
		return "-" + FormatDuration(-seconds)
	}
	switch {
	case seconds >= 1:
		return fmt.Sprintf("%.3gs", seconds)
	case seconds >= 1e-3:
		return fmt.Sprintf("%.3gms", seconds*1e3)
	case seconds >= 1e-6:
		return fmt.Sprintf("%.3gµs", seconds*1e6)
	default:
		return fmt.Sprintf("%.3gns", seconds*1e9)
	}
}
