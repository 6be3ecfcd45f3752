package kernel

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/par"
	"repro/internal/rng"
)

// Variant benchmarks: each algorithm candidate individually, plus the
// default dispatch, over the two key regimes the sort feature
// separates. BenchmarkSortClasses sweeps every class the default table
// covers.

// sortBenchInputs is how many distinct inputs a sort benchmark row
// cycles through. On one repeated input the branch predictor learns a
// comparison sort's branches: at 1 Ki uniform keys quicksort reads
// about 19 µs on one input and 60 µs on fresh ones.
const sortBenchInputs = 16

// benchSortInput times run on copies of the bases in turn.
func benchSortInput(b *testing.B, bases [][]int64, run func(xs []int64)) {
	b.Helper()
	buf := make([]int64, len(bases[0]))
	// One untimed run first: at a million keys b.N can stay 1, and the
	// first call also pays for faulting in buf and the scratch arena.
	copy(buf, bases[0])
	run(buf)
	b.SetBytes(int64(8 * len(buf)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(buf, bases[i%len(bases)])
		run(buf)
	}
	b.StopTimer()
	if !slices.IsSorted(buf) {
		b.Fatal("benchmarked variant failed to sort")
	}
}

// sortBenchBases is sortBenchInputs inputs of n keys drawn by gen from
// seeds seed, seed+1, ...
func sortBenchBases(n int, seed uint64, gen func(n int, seed uint64) []int64) [][]int64 {
	bases := make([][]int64, sortBenchInputs)
	for j := range bases {
		bases[j] = gen(n, seed+uint64(j))
	}
	return bases
}

// benchSortVariants times every sort variant on bases at Procs 1, plus
// "default": Kernel.Run, which is what a serve batch slot on parserve
// runs.
func benchSortVariants(b *testing.B, bases [][]int64) {
	k := MustLookup("sort")
	a := &Args{}
	for i, v := range k.Variants {
		i := i
		b.Run(v.Name, func(b *testing.B) {
			benchSortInput(b, bases, func(xs []int64) {
				*a = Args{Xs: xs}
				k.RunVariant(i, a, par.Options{Procs: 1})
			})
		})
	}
	b.Run("default", func(b *testing.B) {
		benchSortInput(b, bases, func(xs []int64) {
			*a = Args{Xs: xs}
			k.Run(a, par.Options{Procs: 1})
		})
	})
}

// BenchmarkSortNarrow16: uniform keys masked to 16 bits — the regime
// where a distribution sort beats the comparison baseline and the
// default routes away from sample (radix reads 0.11× sample on fresh
// inputs).
func BenchmarkSortNarrow16(b *testing.B) {
	benchSortVariants(b, sortBenchBases(1<<15, 3, narrowInput))
}

// BenchmarkSortWide64: full-range nearly-sorted keys, where sample
// sort's comparisons predict well. Since the radix leaf sorts on a
// 16-bit prefix with an insertion finish, radix runs near parity with
// sample here; the default keeps sample.
func BenchmarkSortWide64(b *testing.B) {
	benchSortVariants(b, sortBenchBases(1<<15, 5, wideNearlySorted))
}

// BenchmarkSortClasses is the measurement sortDefaultTable is read
// off: every variant, and the default, at Procs 1 over each table shape
// and size, each row cycling through sortBenchInputs inputs of its
// shape. The sub-benchmark name carries the inputs' feature class.
func BenchmarkSortClasses(b *testing.B) {
	for _, s := range sortTableShapes {
		for _, n := range sortTableSizes {
			first := s.input(n, 0)
			class := sortFeature(&Args{Xs: first})
			b.Run(fmt.Sprintf("%s/n=%d/class=%d", s.name, n, class), func(b *testing.B) {
				bases := [][]int64{first}
				for j := 1; j < sortBenchInputs; j++ {
					xs := s.input(n, j)
					if c := sortFeature(&Args{Xs: xs}); c != class {
						b.Fatalf("input %d is in class %d, input 0 in %d", j, c, class)
					}
					bases = append(bases, xs)
				}
				benchSortVariants(b, bases)
			})
		}
	}
}

// BenchmarkServeSlot times every registered kernel under the options a
// serve batch slot runs it with on parserve (Procs 1, no parallel
// cutoff) at 1 Ki to 64 Ki elements, input copy
// included, and reports ns/elem. A row where one kernel's ns/elem jumps
// between sizes is a cliff in its serial leaf.
//
// Every kernel runs Gen seed 1's input except sort, select and topk.
// They cycle through the 16 Gen seeds bench/'s mixedPool gives one
// kernel, base + 4*(j/3) + {0, 1, 3}[j%3] from a base below 2^30 that
// is a multiple of 4. So select's ranks are drawn over [0, n) and
// topk's K over 16..32, and sort sees uniform wide keys, the nearly
// sorted 16-bit ramp and few-unique keys, as in bench/'s workloads;
// seed 1 alone would time rank 1, K = 17 and the ramp, which never
// reaches the radix leaf.
func BenchmarkServeSlot(b *testing.B) {
	opts := par.Options{Procs: 1, SerialCutoff: 1 << 62}
	drawn := make([]uint64, 16)
	base := rng.New(1).Uint64() % (1 << 30) &^ 3
	for j := range drawn {
		drawn[j] = base + uint64(4*(j/3)) + [3]uint64{0, 1, 3}[j%3]
	}
	for _, k := range All() {
		seeds := []uint64{1}
		if k.Name == "sort" || k.Name == "select" || k.Name == "topk" {
			seeds = drawn
		}
		for _, n := range []int{1 << 10, 1 << 12, 1 << 13, 1 << 16} {
			b.Run(fmt.Sprintf("%s/n=%d", k.Name, n), func(b *testing.B) {
				args := make([]*Args, len(seeds))
				bases := make([][]int64, len(seeds))
				for j, seed := range seeds {
					args[j] = k.Gen(n, seed)
					bases[j] = slices.Clone(args[j].Xs)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					a := args[i%len(args)]
					copy(a.Xs, bases[i%len(args)])
					k.Run(a, opts)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*args[0].Len()), "ns/elem")
			})
		}
	}
}
