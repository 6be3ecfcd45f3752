package psel

import (
	"fmt"
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
	for _, c := range []struct {
		name string
		k    int
		f    func(k int)
	}{
		{"Select", -1, func(k int) { Select([]int64{1, 2, 3}, k, opts) }},
		{"Select", 3, func(k int) { Select([]int64{1, 2, 3}, k, opts) }},
		{"Smallest", -1, func(k int) { Smallest(nil, []int64{1, 2, 3}, k, opts) }},
		{"Smallest", 4, func(k int) { Smallest(nil, []int64{1, 2, 3}, k, opts) }},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: no panic for k=%d", c.name, c.k)
				}
			}()
			c.f(c.k)
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
	atStride := func(sampled, rest func(i int) int64) []int64 { return atStride(n, sampled, rest) }
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
			lo, hi := bracketRanks(n, sampleSize(n), c.k)
			u, w := bracket(c.xs, make([]int64, sampleSize(n)), lo, hi)
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

// atStride returns n keys whose serial-leaf stride sample reads
// sampled(i) at every sampled position i and rest(i) everywhere else.
func atStride(n int, sampled, rest func(i int) int64) []int64 {
	stride := n / sampleSize(n)
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

// TestSmallestBandMiss poisons the stride sample with the input's
// smallest keys, so that Smallest's open bracket keeps little more than
// the sample and its band holds fewer than K keys. It checks that such
// misses occur, including one where the band is a single key short,
// and holds Smallest at Procs 1 to the sorted prefix at every K it
// tries.
func TestSmallestBandMiss(t *testing.T) {
	const n = 1 << 13
	keys := gen.Ints(n, gen.Uniform, 9)
	for _, c := range []struct {
		name string
		xs   []int64
	}{
		{"min-at-stride", atStride(n, func(i int) int64 { return math.MinInt64 + int64(i) }, func(i int) int64 { return keys[i] >> 2 })},
		{"two-values", atStride(n, func(int) int64 { return 0 }, func(int) int64 { return 1 })},
	} {
		sorted := slices.Clone(c.xs)
		slices.Sort(sorted)
		misses, short := 0, 0
		for k := 1; k <= n; k += 1 + k/8 {
			s := sampleSize(n)
			_, hi := bracketRanks(n, s, k-1)
			_, w := bracket(c.xs, make([]int64, s), -1, hi)
			if _, m := filter(c.xs, make([]int64, n), math.MinInt64, w); m < k {
				misses++
				short += b2i(m == k-1)
			}
			if got := Smallest(nil, c.xs, k, par.Options{Procs: 1}); !slices.Equal(got, sorted[:k]) {
				t.Fatalf("%s k %d: Smallest differs from the sorted prefix", c.name, k)
			}
		}
		if misses == 0 {
			t.Fatalf("%s: no K missed the band", c.name)
		}
		if c.name == "min-at-stride" && short == 0 {
			t.Fatalf("%s: no band was one key short of K", c.name)
		}
	}
}

// TestQuickselectBudget forces the round budget of the leaf's
// quickselect and of the oracle's hoareSelect down to 0–3 so the
// slices.Sort fallback runs on every shape, including the sorted,
// equal-key and organ-pipe inputs that defeat naive pivots, and holds
// the element each returns to a full sort. Quickselect must also leave
// no greater key before rank k and no smaller one after it, which
// bracket and Smallest rely on.
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
					ys := slices.Clone(xs)
					if got := quickselect(ys, k, budget); got != sorted[k] {
						t.Fatalf("%s n=%d k=%d budget=%d: %d, want %d", s.name, n, k, budget, got, sorted[k])
					}
					if err := partitionedAt(ys, k); err != "" {
						t.Fatalf("%s n=%d k=%d budget=%d: %s", s.name, n, k, budget, err)
					}
					if got := hoareSelect(slices.Clone(xs), k, budget); got != sorted[k] {
						t.Fatalf("%s n=%d k=%d budget=%d: hoareSelect = %d, want %d", s.name, n, k, budget, got, sorted[k])
					}
				}
			}
		}
	}
}

// partitionedAt describes the first key of xs on the wrong side of
// xs[k], or returns "" when there is none.
func partitionedAt(xs []int64, k int) string {
	for i, v := range xs {
		if i < k && v > xs[k] || i > k && v < xs[k] {
			return fmt.Sprintf("xs[%d] = %d on the wrong side of xs[%d] = %d", i, v, k, xs[k])
		}
	}
	return ""
}

// TestDuplicateShapes holds Select and Smallest, at Procs 1 and 4, to a
// full sort on dupShapes at BenchmarkSelectRanks' duplicate sizes and
// at ranks across the range, and checks that neither modifies xs.
func TestDuplicateShapes(t *testing.T) {
	for _, s := range dupShapes {
		for _, n := range []int{1 << 10, 1 << 13} {
			xs := s.gen(n)
			sorted := slices.Clone(xs)
			slices.Sort(sorted)
			before := slices.Clone(xs)
			for _, procs := range []int{1, 4} {
				o := par.Options{Procs: procs}
				for _, k := range []int{0, 1, 31, n / 4, n / 2, n - 1} {
					if got := Select(xs, k, o); got != sorted[k] {
						t.Fatalf("%s n=%d procs=%d k=%d: Select = %d, want %d", s.name, n, procs, k, got, sorted[k])
					}
					if got := Smallest(nil, xs, k+1, o); !slices.Equal(got, sorted[:k+1]) {
						t.Fatalf("%s n=%d procs=%d k=%d: Smallest differs from the sorted prefix", s.name, n, procs, k+1)
					}
				}
			}
			if !slices.Equal(xs, before) {
				t.Fatalf("%s n=%d: xs modified", s.name, n)
			}
		}
	}
}

// TestSmallest holds Smallest to the sorted prefix on every gen
// distribution across the serial leaf's edges (sampledMin, 4 096) at
// Procs 1 and 4, for K from 0 to n, and checks that it fills dst in
// place when dst has room.
func TestSmallest(t *testing.T) {
	for _, d := range gen.Distributions {
		for _, n := range []int{1, 300, sampledMin, 4096, 4097, 20000} {
			xs := gen.Ints(n, d, 3)
			sorted := slices.Clone(xs)
			slices.Sort(sorted)
			for _, procs := range []int{1, 4} {
				for _, k := range []int{0, 1, 17, 32, n / 2, n - 1, n} {
					if k < 0 || k > n {
						continue
					}
					dst := make([]int64, 1, k+1)
					got := Smallest(dst, xs, k, par.Options{Procs: procs})
					if !slices.Equal(got, sorted[:k]) {
						t.Fatalf("%v n=%d procs=%d k=%d: Smallest differs from the sorted prefix", d, n, procs, k)
					}
					if k > 0 && &got[0] != &dst[:1][0] {
						t.Fatalf("%v n=%d procs=%d k=%d: Smallest reallocated dst", d, n, procs, k)
					}
				}
			}
		}
	}
}
