package par

import (
	"testing"

	"repro/internal/gen"
	"repro/internal/seq"
)

// BenchmarkPrimitives covers the substrate primitives individually so
// regressions localize (not tied to one experiment).
func BenchmarkPrimitives(b *testing.B) {
	xs := gen.Ints(1<<20, gen.Uniform, 42)
	opts := Options{Grain: 8192}
	b.Run("sum", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			Sum(xs, opts)
		}
		reportThroughput(b, len(xs))
	})
	dst := make([]int64, len(xs))
	b.Run("scan", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ScanInclusive(dst, xs, opts, 0, func(a, b int64) int64 { return a + b })
		}
		reportThroughput(b, len(xs))
	})
	b.Run("pack", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			PackInto(dst, xs, opts, func(v int64) bool { return v&1 == 0 })
		}
		reportThroughput(b, len(xs))
	})
	hist := make([]int, 256)
	b.Run("histogram", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			HistogramInto(hist, xs, opts, func(v int64) int { return int(uint64(v) >> 56) })
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
			Merge(mdst, sa, sb, opts, func(x, y int64) bool { return x < y })
		}
		reportThroughput(b, len(xs))
	})
}

func reportThroughput(b *testing.B, items int) {
	b.ReportMetric(float64(items)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mitems/s")
}
