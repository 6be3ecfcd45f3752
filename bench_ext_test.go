// Benchmarks for the extension experiments E15–E18 (see DESIGN.md).
package repro

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/bsp"
	"repro/internal/gen"
	"repro/internal/machine"
	"repro/internal/par"
	"repro/internal/pgraph"
	"repro/internal/psel"
	"repro/internal/psort"
	"repro/internal/pstencil"
	"repro/internal/sched"
	"repro/internal/seq"
)

// BenchmarkE15WeakScaling — Figure 7: simulated-machine weak scaling.
func BenchmarkE15WeakScaling(b *testing.B) {
	const n0 = 1 << 12
	params := machine.BSPParams{G: 2, L: 2000}
	for _, p := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("scan/p=%d", p), func(b *testing.B) {
			xs := gen.Ints(n0*p, gen.Uniform, 42)
			var stats *bsp.Stats
			for i := 0; i < b.N; i++ {
				_, stats = bsp.Scan(xs, p)
			}
			params.P = p
			b.ReportMetric(stats.Cost(params), "model-ops")
		})
	}
}

// BenchmarkE16Selection — Table 9: median selection.
func BenchmarkE16Selection(b *testing.B) {
	const n = 1 << 19
	xs := gen.Ints(n, gen.Uniform, 42)
	k := (n - 1) / 2
	b.Run("seq-quickselect", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			psel.SelectSeq(xs, k)
		}
		reportThroughput(b, n)
	})
	b.Run("par-select", func(b *testing.B) {
		opts := par.Options{Grain: 4096}
		for i := 0; i < b.N; i++ {
			psel.Select(xs, k, opts)
		}
		reportThroughput(b, n)
	})
	buf := make([]int64, n)
	b.Run("sort-then-index", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			copy(buf, xs)
			seq.Quicksort(buf)
			_ = buf[k]
		}
		reportThroughput(b, n)
	})
}

// BenchmarkE17GraphIterative — Table 10: PageRank and triangles.
func BenchmarkE17GraphIterative(b *testing.B) {
	g := gen.RMAT(13, 8, false, 42)
	opts := par.Options{Grain: 1024}
	b.Run("pagerank", func(b *testing.B) {
		var iters int
		for i := 0; i < b.N; i++ {
			iters = pgraph.PageRank(g, 0.85, 1e-8, 200, opts).Iters
		}
		b.ReportMetric(float64(iters), "iters")
		reportThroughput(b, g.M())
	})
	b.Run("triangles", func(b *testing.B) {
		var tris int64
		for i := 0; i < b.N; i++ {
			tris = pgraph.TriangleCount(g, opts)
		}
		b.ReportMetric(float64(tris), "triangles")
		reportThroughput(b, g.M())
	})
}

// BenchmarkE18Aggregation — Figure 8: bulk-message kernels on the
// simulated machine (granularity drives the h accounting).
func BenchmarkE18Aggregation(b *testing.B) {
	const side = 48
	a := gen.RandomMatrix(side, side, 1)
	m := gen.RandomMatrix(side, side, 2)
	b.Run("matmul-panels", func(b *testing.B) {
		var stats *bsp.Stats
		for i := 0; i < b.N; i++ {
			_, stats = bsp.MatmulRowBlockOn(nil, a.Data, m.Data, side, 8)
		}
		b.ReportMetric(stats.TotalH(), "model-H-words")
	})
	xs := gen.Ints(1<<12, gen.Uniform, 42)
	b.Run("samplesort-words", func(b *testing.B) {
		var stats *bsp.Stats
		for i := 0; i < b.N; i++ {
			_, stats = bsp.SampleSort(xs, 8)
		}
		b.ReportMetric(stats.TotalH(), "model-H-words")
	})
}

// BenchmarkPrimitives covers the substrate primitives individually so
// regressions localize (not tied to one experiment).
func BenchmarkPrimitives(b *testing.B) {
	xs := gen.Ints(1<<20, gen.Uniform, 42)
	opts := par.Options{Grain: 8192}
	b.Run("sum", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			par.Sum(xs, opts)
		}
		reportThroughput(b, len(xs))
	})
	dst := make([]int64, len(xs))
	b.Run("scan", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			par.ScanInclusive(dst, xs, opts, 0, func(a, b int64) int64 { return a + b })
		}
		reportThroughput(b, len(xs))
	})
	b.Run("pack", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			par.PackInto(dst, xs, opts, func(v int64) bool { return v&1 == 0 })
		}
		reportThroughput(b, len(xs))
	})
	hist := make([]int, 256)
	b.Run("histogram", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			par.HistogramInto(hist, xs, opts, func(v int64) int { return int(uint64(v) >> 56) })
		}
		reportThroughput(b, len(xs))
	})
	half := len(xs) / 2
	sa := append([]int64(nil), xs[:half]...)
	sb := append([]int64(nil), xs[half:]...)
	seq.Quicksort(sa)
	seq.Quicksort(sb)
	mdst := make([]int64, len(xs))
	b.Run("merge", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			par.Merge(mdst, sa, sb, opts, func(x, y int64) bool { return x < y })
		}
		reportThroughput(b, len(xs))
	})
}

// BenchmarkE19Relaxation — Figure 9: Jacobi vs red-black Gauss–Seidel.
func BenchmarkE19Relaxation(b *testing.B) {
	g := gen.HotPlateGrid(65)
	opts := par.Options{Grain: 8}
	b.Run("jacobi", func(b *testing.B) {
		var iters int
		for i := 0; i < b.N; i++ {
			_, iters = pstencil.JacobiToConvergence(g, 1e-4, 1000000, opts)
		}
		b.ReportMetric(float64(iters), "sweeps")
	})
	b.Run("redblack-gs", func(b *testing.B) {
		var iters int
		for i := 0; i < b.N; i++ {
			_, iters = pstencil.GaussSeidelRBToConvergence(g, 1e-4, 1000000, opts)
		}
		b.ReportMetric(float64(iters), "sweeps")
	})
}

// BenchmarkE20StealSort — Table 11: task- vs loop-parallel sorting.
func BenchmarkE20StealSort(b *testing.B) {
	const n = 1 << 18
	master := gen.Ints(n, gen.Uniform, 42)
	buf := make([]int64, n)
	pool := sched.NewPoolOn(nil, runtime.GOMAXPROCS(0))
	b.Run("steal-quicksort", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			copy(buf, master)
			psort.QuickSortSteal(buf, pool)
		}
		reportThroughput(b, n)
	})
	b.Run("samplesort", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			copy(buf, master)
			psort.SampleSort(buf, par.Options{})
		}
		reportThroughput(b, n)
	})
}

// BenchmarkE21BFSDirection — Figure 10: BFS direction ablation.
func BenchmarkE21BFSDirection(b *testing.B) {
	g := gen.RMAT(14, 8, false, 42)
	opts := par.Options{Grain: 1024}
	b.Run("top-down", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			pgraph.BFS(g, 0, opts)
		}
		reportThroughput(b, g.M())
	})
	b.Run("hybrid", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			pgraph.BFSHybrid(g, 0, 14, opts)
		}
		reportThroughput(b, g.M())
	})
}
