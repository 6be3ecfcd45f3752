package kernel

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/adapt"
	"repro/internal/par"
	"repro/internal/rng"
)

// Variant benchmarks: each algorithm candidate individually, plus the
// no-controller default and the adaptive dispatch path with a
// pre-warmed controller, over the two key regimes the sort feature
// separates. The acceptance ratio is adaptive vs sample on narrow keys.
// BenchmarkSortClasses sweeps every class the default table covers.

func benchSortInput(b *testing.B, base []int64, run func(xs []int64)) {
	b.Helper()
	buf := make([]int64, len(base))
	// One untimed run first: at a million keys b.N can stay 1, and the
	// first call also pays for faulting in buf and the scratch arena.
	copy(buf, base)
	run(buf)
	b.SetBytes(int64(8 * len(base)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(buf, base)
		run(buf)
	}
	b.StopTimer()
	if !slices.IsSorted(buf) {
		b.Fatal("benchmarked variant failed to sort")
	}
}

// warmedController converges the sort kernel's variant lattice on base
// before timing starts, so the adaptive benchmark measures steady-state
// dispatch (one feature probe + one table lookup), not exploration.
func warmedController(b *testing.B, base []int64) *adapt.Controller {
	b.Helper()
	k := MustLookup("sort")
	ctl := adapt.New(adapt.Config{ConvergeAfter: 12, Seed: 9})
	xs := make([]int64, len(base))
	for i := 0; i < 24; i++ {
		copy(xs, base)
		k.Run(&Args{Xs: xs}, par.Options{Procs: 1, Adaptive: ctl})
	}
	return ctl
}

// benchSortVariants times every sort variant on base at Procs 1, plus
// "default": Kernel.Run with no controller, which is what a serve batch
// slot on parserve runs.
func benchSortVariants(b *testing.B, base []int64) {
	k := MustLookup("sort")
	for i, v := range k.Variants {
		i := i
		b.Run(v.Name, func(b *testing.B) {
			benchSortInput(b, base, func(xs []int64) {
				k.RunVariant(i, &Args{Xs: xs}, par.Options{Procs: 1})
			})
		})
	}
	b.Run("default", func(b *testing.B) {
		benchSortInput(b, base, func(xs []int64) {
			k.Run(&Args{Xs: xs}, par.Options{Procs: 1})
		})
	})
}

func benchSortRegime(b *testing.B, base []int64) {
	k := MustLookup("sort")
	benchSortVariants(b, base)
	b.Run("adaptive", func(b *testing.B) {
		ctl := warmedController(b, base)
		opts := par.Options{Procs: 1, Adaptive: ctl}
		benchSortInput(b, base, func(xs []int64) {
			k.Run(&Args{Xs: xs}, opts)
		})
	})
}

// BenchmarkSortNarrow16: uniform keys masked to 16 bits — the regime
// where a distribution sort beats the comparison baseline and adaptive
// dispatch should route away from sample.
func BenchmarkSortNarrow16(b *testing.B) {
	benchSortRegime(b, narrowInput(1<<15, 3))
}

// BenchmarkSortWide64: full-range nearly-sorted keys — the regime
// where sample sort's cheap comparisons win and radix pays all eight
// passes; adaptive dispatch should stay on sample.
func BenchmarkSortWide64(b *testing.B) {
	benchSortRegime(b, wideNearlySorted(1<<15, 5))
}

// BenchmarkSortClasses is the measurement sortDefaultTable is read
// off: every variant, and the default, at Procs 1 over each table shape
// and size. The sub-benchmark name carries the input's feature class.
func BenchmarkSortClasses(b *testing.B) {
	for _, s := range sortTableShapes {
		for _, n := range sortTableSizes {
			base := s.gen(n)
			b.Run(fmt.Sprintf("%s/n=%d/class=%d", s.name, n, sortFeature(&Args{Xs: base})), func(b *testing.B) {
				benchSortVariants(b, base)
			})
		}
	}
}

// BenchmarkServeSlot times every registered kernel under the options a
// serve batch slot runs it with on parserve (Procs 1, no parallel
// cutoff, no controller) at 1 Ki to 64 Ki elements, input copy
// included, and reports ns/elem. A row where one kernel's ns/elem jumps
// between sizes is a cliff in its serial leaf.
//
// Every kernel runs Gen seed 1's input except select and topk, whose
// Gen derives the rank from the seed: seed 1 alone would time rank 1
// and K = 17. They cycle through the 16 Gen seeds bench/'s mixedPool
// gives one kernel, base + 4*(j/3) + {0, 1, 3}[j%3] from a base below
// 2^30 that is a multiple of 4, so select's ranks are drawn over
// [0, n) and topk's K over 16..32 as in bench/'s workloads.
func BenchmarkServeSlot(b *testing.B) {
	opts := par.Options{Procs: 1, SerialCutoff: 1 << 62}
	drawn := make([]uint64, 16)
	base := rng.New(1).Uint64() % (1 << 30) &^ 3
	for j := range drawn {
		drawn[j] = base + uint64(4*(j/3)) + [3]uint64{0, 1, 3}[j%3]
	}
	for _, k := range All() {
		seeds := []uint64{1}
		if k.Name == "select" || k.Name == "topk" {
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
