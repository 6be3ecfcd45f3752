package rng

import (
	"math"
	"math/bits"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at step %d", i)
		}
	}
}

func TestSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("different seeds produced %d identical values out of 1000", same)
	}
}

func TestZeroValueUsable(t *testing.T) {
	var r Rand
	seen := map[uint64]bool{}
	for i := 0; i < 100; i++ {
		seen[r.Uint64()] = true
	}
	if len(seen) < 100 {
		t.Fatalf("zero-value Rand produced repeats: %d unique of 100", len(seen))
	}
}

func TestIntnRange(t *testing.T) {
	r := New(3)
	for _, n := range []int{1, 2, 3, 7, 10, 100, 1 << 20} {
		for i := 0; i < 200; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestUint64nPowerOfTwo(t *testing.T) {
	r := New(11)
	for i := 0; i < 1000; i++ {
		if v := r.Uint64n(8); v >= 8 {
			t.Fatalf("Uint64n(8) = %d", v)
		}
	}
}

func TestUint64nUniformity(t *testing.T) {
	// Chi-squared-ish sanity test over 10 buckets.
	r := New(5)
	const n, buckets = 100000, 10
	counts := make([]int, buckets)
	for i := 0; i < n; i++ {
		counts[r.Uint64n(buckets)]++
	}
	exp := float64(n) / buckets
	for b, c := range counts {
		if math.Abs(float64(c)-exp) > 5*math.Sqrt(exp) {
			t.Fatalf("bucket %d count %d too far from expectation %.0f", b, c, exp)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(9)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", f)
		}
	}
}

func TestNormFloat64Moments(t *testing.T) {
	r := New(13)
	const n = 200000
	var sum, sq float64
	for i := 0; i < n; i++ {
		v := r.NormFloat64()
		sum += v
		sq += v * v
	}
	mean := sum / n
	variance := sq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Errorf("normal mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.05 {
		t.Errorf("normal variance = %v, want ~1", variance)
	}
}

func TestExpFloat64Mean(t *testing.T) {
	r := New(17)
	const n = 200000
	var sum float64
	for i := 0; i < n; i++ {
		v := r.ExpFloat64()
		if v < 0 {
			t.Fatalf("exponential variate negative: %v", v)
		}
		sum += v
	}
	if mean := sum / n; math.Abs(mean-1) > 0.02 {
		t.Errorf("exponential mean = %v, want ~1", mean)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(23)
	for _, n := range []int{0, 1, 2, 10, 1000} {
		p := r.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) has length %d", n, len(p))
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) invalid element %d", n, v)
			}
			seen[v] = true
		}
	}
}

func TestMix64Bijective(t *testing.T) {
	// Property: mix64 is injective on a random sample (it is a bijection,
	// so no two distinct inputs may collide).
	seen := map[uint64]uint64{}
	r := New(29)
	for i := 0; i < 10000; i++ {
		x := r.Uint64()
		y := mix64(x)
		if prev, ok := seen[y]; ok && prev != x {
			t.Fatalf("mix64 collision: mix64(%d) == mix64(%d)", prev, x)
		}
		seen[y] = x
	}
}

func TestMulti64MatchesBits(t *testing.T) {
	f := func(a, b uint64) bool {
		hi, lo := mul64(a, b)
		whi, wlo := bits.Mul64(a, b)
		return hi == whi && lo == wlo
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestGammaAlwaysOdd(t *testing.T) {
	f := func(z uint64) bool { return mixGamma(z)&1 == 1 }
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += r.Uint64()
	}
	_ = sink
}
