package rng

import "math"

// golden is the odd approximation of 2^64/phi used by SplitMix64.
const golden = 0x9E3779B97F4A7C15

// Rand is a SplitMix64 generator. The zero value is a valid
// generator seeded with 0; use New for an explicit seed.
type Rand struct {
	state uint64
	gamma uint64
}

// New returns a generator seeded with seed.
func New(seed uint64) *Rand {
	return &Rand{state: mix64(seed), gamma: mixGamma(seed + golden)}
}

// Uint64 returns the next value in the stream.
func (r *Rand) Uint64() uint64 {
	if r.gamma == 0 {
		// Zero-value Rand: lazily adopt the default odd gamma.
		r.gamma = golden
	}
	r.state += r.gamma
	return mix64(r.state)
}

// Int63 returns a non-negative random int64.
func (r *Rand) Int63() int64 {
	return int64(r.Uint64() >> 1)
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn called with n <= 0")
	}
	return int(r.Uint64n(uint64(n)))
}

// Uint64n returns a uniform uint64 in [0, n) using Lemire's
// multiply-shift rejection method. It panics if n == 0.
func (r *Rand) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("rng: Uint64n called with n == 0")
	}
	// Fast path for powers of two.
	if n&(n-1) == 0 {
		return r.Uint64() & (n - 1)
	}
	// Lemire rejection: compute high 64 bits of x*n with rejection on
	// the low word to remove modulo bias.
	thresh := -n % n
	for {
		x := r.Uint64()
		hi, lo := mul64(x, n)
		if lo >= thresh {
			return hi
		}
	}
}

// Float64 returns a uniform float64 in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// NormFloat64 returns a standard normal variate using the
// Marsaglia polar method.
func (r *Rand) NormFloat64() float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s >= 1 || s == 0 {
			continue
		}
		return u * math.Sqrt(-2*math.Log(s)/s)
	}
}

// ExpFloat64 returns an exponentially distributed variate with rate 1.
func (r *Rand) ExpFloat64() float64 {
	for {
		u := r.Float64()
		if u > 0 {
			return -math.Log(u)
		}
	}
}

// Perm returns a random permutation of [0, n) (Fisher–Yates).
func (r *Rand) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	r.Shuffle(len(p), func(i, j int) { p[i], p[j] = p[j], p[i] })
	return p
}

// Shuffle permutes n elements using the provided swap function.
func (r *Rand) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// mix64 is the SplitMix64 finalizer (a bijection on uint64).
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// mixGamma derives an odd gamma with enough bit transitions to be a good
// Weyl increment, per the SplitMix64 paper.
func mixGamma(z uint64) uint64 {
	z = (z ^ (z >> 33)) * 0xFF51AFD7ED558CCD
	z = (z ^ (z >> 33)) * 0xC4CEB9FE1A85EC53
	z = (z ^ (z >> 33)) | 1
	if popcount(z^(z>>1)) < 24 {
		z ^= 0xAAAAAAAAAAAAAAAA
	}
	return z
}

func popcount(x uint64) int {
	n := 0
	for x != 0 {
		x &= x - 1
		n++
	}
	return n
}

// mul64 returns the 128-bit product of a and b as (hi, lo).
func mul64(a, b uint64) (hi, lo uint64) {
	const mask = 1<<32 - 1
	a0, a1 := a&mask, a>>32
	b0, b1 := b&mask, b>>32
	t := a1*b0 + (a0*b0)>>32
	w1 := t&mask + a0*b1
	hi = a1*b1 + t>>32 + w1>>32
	lo = a * b
	return
}
