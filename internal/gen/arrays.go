package gen

import (
	"math"

	"repro/internal/rng"
)

// Distribution selects the shape of generated numeric data. The sorting
// case study uses several distributions because comparison sorts, sample
// sort's splitter selection, and radix sort respond very differently to
// input order and skew.
type Distribution int

const (
	// Uniform draws keys uniformly at random over the full range.
	Uniform Distribution = iota
	// Sorted produces an already ascending array (adversarial for naive
	// quicksort pivoting, trivial for adaptive sorts).
	Sorted
	// Reversed produces a strictly descending array.
	Reversed
	// NearlySorted produces a sorted array with ~1% random swaps.
	NearlySorted
	// Zipf produces heavily skewed keys (many duplicates) following an
	// approximate Zipf(s=1.2) distribution, stressing duplicate handling.
	Zipf
	// Gaussian produces normally distributed keys around the midpoint.
	Gaussian
	// FewUnique produces keys drawn from only 16 distinct values.
	FewUnique
)

// String returns the distribution name used in experiment tables.
func (d Distribution) String() string {
	switch d {
	case Uniform:
		return "uniform"
	case Sorted:
		return "sorted"
	case Reversed:
		return "reversed"
	case NearlySorted:
		return "nearly-sorted"
	case Zipf:
		return "zipf"
	case Gaussian:
		return "gaussian"
	case FewUnique:
		return "few-unique"
	default:
		return "unknown"
	}
}

// Distributions lists all supported distributions in table order.
var Distributions = []Distribution{Uniform, Sorted, Reversed, NearlySorted, Zipf, Gaussian, FewUnique}

// Ints generates n int64 keys with the given distribution and seed.
func Ints(n int, d Distribution, seed uint64) []int64 {
	r := rng.New(seed)
	out := make([]int64, n)
	if n == 0 {
		return out
	}
	switch d {
	case Uniform:
		for i := range out {
			out[i] = r.Int63()
		}
	case Sorted:
		for i := range out {
			out[i] = int64(i)
		}
	case Reversed:
		for i := range out {
			out[i] = int64(n - i)
		}
	case NearlySorted:
		for i := range out {
			out[i] = int64(i)
		}
		swaps := n / 100
		if swaps == 0 && n > 1 {
			swaps = 1
		}
		for s := 0; s < swaps; s++ {
			i, j := r.Intn(n), r.Intn(n)
			out[i], out[j] = out[j], out[i]
		}
	case Zipf:
		z := NewZipf(r, 1.2, uint64(n))
		for i := range out {
			out[i] = int64(z.Next())
		}
	case Gaussian:
		for i := range out {
			out[i] = int64(r.NormFloat64() * float64(n))
		}
	case FewUnique:
		for i := range out {
			out[i] = int64(r.Intn(16))
		}
	default:
		for i := range out {
			out[i] = r.Int63()
		}
	}
	return out
}

// Zipf samples approximately Zipf-distributed values in [0, imax) with
// exponent s > 1 using inverse-CDF sampling over the truncated
// Riemann zeta tail. It is a reproducible replacement for math/rand.Zipf
// built on our splittable generator.
type ZipfGen struct {
	r    *rng.Rand
	s    float64
	imax uint64
	// cdf inversion via Newton on the approximate continuous CDF
	oneMinusS float64
	hx0       float64
	hxm       float64
}

// NewZipf builds a Zipf sampler. s must be > 1 and imax >= 1.
func NewZipf(r *rng.Rand, s float64, imax uint64) *ZipfGen {
	if s <= 1 || imax < 1 {
		panic("gen: NewZipf requires s > 1 and imax >= 1")
	}
	z := &ZipfGen{r: r, s: s, imax: imax, oneMinusS: 1 - s}
	z.hx0 = z.h(0.5)
	z.hxm = z.h(float64(imax) + 0.5)
	return z
}

// h is the continuous approximation integral x^{-s} dx.
func (z *ZipfGen) h(x float64) float64 {
	return math.Exp(z.oneMinusS*math.Log(x)) / z.oneMinusS
}

func (z *ZipfGen) hinv(x float64) float64 {
	return math.Exp(math.Log(z.oneMinusS*x) / z.oneMinusS)
}

// Next returns the next Zipf variate in [0, imax).
func (z *ZipfGen) Next() uint64 {
	// Inverse transform on the continuous envelope; adequate fidelity for
	// workload skew (we need heavy skew, not exact zeta tail constants).
	u := z.r.Float64()
	x := z.hinv(z.hx0 + u*(z.hxm-z.hx0))
	k := uint64(x)
	if k >= z.imax {
		k = z.imax - 1
	}
	return k
}

// SkewedWork produces n per-iteration work amounts whose total is roughly
// total, with a fraction of "hub" iterations carrying most of the work.
// This models the load imbalance of scale-free inputs and drives the
// scheduling-policy ablation (experiment E10).
func SkewedWork(n int, total int, hubFraction float64, seed uint64) []int {
	if n <= 0 {
		return nil
	}
	r := rng.New(seed)
	out := make([]int, n)
	hubs := int(float64(n) * hubFraction)
	if hubs < 1 {
		hubs = 1
	}
	heavy := total / 2
	light := total - heavy
	for i := 0; i < n; i++ {
		out[i] = light / n
	}
	for h := 0; h < hubs; h++ {
		out[r.Intn(n)] += heavy / hubs
	}
	return out
}
