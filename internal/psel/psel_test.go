package psel

import (
	"math"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/gen"
	"repro/internal/par"
)

var opts = par.Options{Procs: 4, Grain: 64}

func TestSelectMatchesSort(t *testing.T) {
	for _, d := range gen.Distributions {
		xs := gen.Ints(20000, d, 3)
		sorted := append([]int64(nil), xs...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		for _, k := range []int{0, 1, 100, 9999, 19998, 19999} {
			if got := Select(xs, k, opts); got != sorted[k] {
				t.Fatalf("%v k=%d: Select = %d, want %d", d, k, got, sorted[k])
			}
			if got := SelectSeq(xs, k); got != sorted[k] {
				t.Fatalf("%v k=%d: SelectSeq = %d, want %d", d, k, got, sorted[k])
			}
		}
	}
}

func TestSelectDoesNotMutate(t *testing.T) {
	xs := gen.Ints(10000, gen.Uniform, 5)
	before := append([]int64(nil), xs...)
	Select(xs, 5000, opts)
	SelectSeq(xs, 5000)
	for i := range before {
		if xs[i] != before[i] {
			t.Fatalf("input mutated at %d", i)
		}
	}
}

func TestSelectPanicsOutOfRange(t *testing.T) {
	for _, k := range []int{-1, 3} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("no panic for k=%d", k)
				}
			}()
			Select([]int64{1, 2, 3}, k, opts)
		}()
	}
}

func TestSelectSmallSlices(t *testing.T) {
	if Select([]int64{42}, 0, opts) != 42 {
		t.Fatal("singleton")
	}
	if Select([]int64{2, 1}, 0, opts) != 1 || Select([]int64{2, 1}, 1, opts) != 2 {
		t.Fatal("pair")
	}
}

func TestSelectManyDuplicates(t *testing.T) {
	xs := make([]int64, 50000)
	for i := range xs {
		xs[i] = int64(i % 3)
	}
	// 0 repeated ~16667 times, etc.
	if got := Select(xs, 0, opts); got != 0 {
		t.Fatalf("k=0: %d", got)
	}
	if got := Select(xs, 20000, opts); got != 1 {
		t.Fatalf("k=20000: %d", got)
	}
	if got := Select(xs, 49999, opts); got != 2 {
		t.Fatalf("k max: %d", got)
	}
}

func TestSelectQuick(t *testing.T) {
	f := func(raw []int64, kSeed uint16, procs uint8) bool {
		if len(raw) == 0 {
			return true
		}
		k := int(kSeed) % len(raw)
		sorted := append([]int64(nil), raw...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		got := Select(raw, k, par.Options{Procs: int(procs%8) + 1, Grain: 8})
		return got == sorted[k]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSelectLargeCrossesParallelPath(t *testing.T) {
	// Above the 4096 cutoff the parallel count/pack path runs.
	xs := gen.Ints(1<<17, gen.Zipf, 11)
	sorted := append([]int64(nil), xs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	for _, k := range []int{0, 1 << 16, 1<<17 - 1} {
		if got := Select(xs, k, opts); got != sorted[k] {
			t.Fatalf("k=%d: %d != %d", k, got, sorted[k])
		}
	}
}

// TestSelectLeafBracketMiss poisons the serial leaf's stride sample so
// that its bracket [u, w] misses the rank asked for, checks through
// bracket and filter that the leaf sees a miss there, and holds Select
// at Procs 1 to a full sort at that rank, at both ends of the range and
// on both sides of both band edges. All-equal keys cannot miss; they
// check the u == w answer instead.
func TestSelectLeafBracketMiss(t *testing.T) {
	const n = 1 << 13
	stride := n / sampleSize(n)
	atStride := func(sampled, rest func(i int) int64) []int64 {
		xs := make([]int64, n)
		for i := range xs {
			if i%stride == 0 && i/stride < sampleSize(n) {
				xs[i] = sampled(i)
			} else {
				xs[i] = rest(i)
			}
		}
		return xs
	}
	keys := gen.Ints(n, gen.Uniform, 9)
	random := func(i int) int64 { return keys[i] >> 2 }
	cases := []struct {
		name string
		xs   []int64
		k    int
		miss bool
	}{
		{"max-at-stride", atStride(func(i int) int64 { return math.MaxInt64 - int64(i) }, random), n / 2, true},
		{"min-at-stride", atStride(func(i int) int64 { return math.MinInt64 + int64(i) }, random), n / 2, true},
		{"two-values", atStride(func(int) int64 { return 0 }, func(int) int64 { return 1 }), n / 2, true},
		{"all-equal", make([]int64, n), n / 2, false},
		{"fuzz-tile", tiledKeys(poisonedTile(), 512, 0xD2), 300, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			n := len(c.xs)
			sorted := slices.Clone(c.xs)
			slices.Sort(sorted)
			u, w := bracket(c.xs, make([]int64, sampleSize(n)), c.k)
			below, m := filter(c.xs, make([]int64, n), u, w)
			if miss := c.k < below || c.k >= below+m; miss != c.miss {
				t.Fatalf("k %d, band [%d, %d) of keys in [%d, %d]: miss = %v, want %v", c.k, below, below+m, u, w, miss, c.miss)
			}
			if !c.miss && u != w {
				t.Fatalf("all-equal keys bracketed by [%d, %d], want u == w", u, w)
			}
			for _, k := range []int{0, n - 1, c.k, below - 1, below, below + m - 1, below + m} {
				if k < 0 || k >= n {
					continue
				}
				if got := Select(c.xs, k, par.Options{Procs: 1}); got != sorted[k] {
					t.Fatalf("k %d (band [%d, %d)): Select = %d, want %d", k, below, below+m, got, sorted[k])
				}
			}
		})
	}
}

// TestQuickselectBudget forces quickselect's round budget down to 0–3
// so the slices.Sort fallback runs on every shape, including the
// sorted, equal-key and organ-pipe inputs that defeat naive pivots, and
// holds the element it returns to a full sort.
func TestQuickselectBudget(t *testing.T) {
	shapes := []struct {
		name string
		gen  func(n int) []int64
	}{
		{"uniform", func(n int) []int64 { return gen.Ints(n, gen.Uniform, 7) }},
		{"sorted", func(n int) []int64 { return gen.Ints(n, gen.Sorted, 7) }},
		{"reversed", func(n int) []int64 { return gen.Ints(n, gen.Reversed, 7) }},
		{"all-equal", func(n int) []int64 { return make([]int64, n) }},
		{"few-unique", func(n int) []int64 { return gen.Ints(n, gen.FewUnique, 7) }},
		{"organ-pipe", func(n int) []int64 {
			xs := make([]int64, n)
			for i := range xs {
				xs[i] = int64(min(i, n-1-i))
			}
			return xs
		}},
	}
	for _, s := range shapes {
		for _, n := range []int{1, 2, 4097, 1 << 16} {
			xs := s.gen(n)
			sorted := slices.Clone(xs)
			slices.Sort(sorted)
			for _, k := range []int{0, n / 2, n - 1} {
				for budget := 0; budget <= 3; budget++ {
					if got := quickselect(slices.Clone(xs), k, budget); got != sorted[k] {
						t.Fatalf("%s n=%d k=%d budget=%d: %d, want %d", s.name, n, k, budget, got, sorted[k])
					}
				}
			}
		}
	}
}
