package pipeline

import (
	"testing"

	"repro/internal/par"
	"repro/internal/psort"
)

// BenchmarkTrafficPipeline is the acceptance benchmark for the
// streaming runtime: the analytics chain gen → map → filter →
// histogram (+ running sum sink) executed two ways over the same
// workload.
//
//   - Materialized: the one-shot kernel composition — every stage is a
//     whole-array kernel call with a full-size intermediate allocated
//     between stages, each pass streaming the array through DRAM.
//   - Chunked: the same chain as a pipeline, fused over cache-sized
//     chunks recycled through the scratch pool.
//
// Run with -benchmem: chunked must win on both ns/op (the
// intermediates stay cache-resident and the GC never sees them) and
// B/op (no per-stage O(n) allocations).
const (
	benchN  = 1 << 21 // 16 MiB per materialized intermediate
	benchCS = 8192    // 64 KiB chunks
)

func BenchmarkTrafficPipeline(b *testing.B) {
	b.Run("Materialized", func(b *testing.B) {
		hist := make([]int, DemoBuckets)
		var sum int64
		opts := par.Options{}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			// Stage 1: generate a fully materialized input.
			xs := make([]int64, benchN)
			par.For(benchN, opts, func(j int) { xs[j] = DemoGen(j) })
			// Stage 2: map into a second full-size array.
			ys := par.Map(xs, opts, DemoMap)
			// Stage 3: filter into a third.
			zs := par.Pack(ys, opts, DemoPred)
			// Stage 4: aggregate.
			par.HistogramInto(hist, zs, opts, DemoBucket)
			sum = par.Sum(zs, opts)
		}
		_ = sum
	})
	b.Run("Chunked", func(b *testing.B) {
		hist := make([]int, DemoBuckets)
		var sum int64
		cfg := Config{ChunkSize: benchCS,
			Opts: par.Options{SerialCutoff: benchCS}}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			var s int64
			p := New(cfg).
				FromFunc(benchN, DemoGen).
				Map(DemoMap).
				Filter(DemoPred).
				Tee(func(buf []int64) {
					for _, v := range buf {
						s += v
					}
				}).
				ToHistogram(hist, DemoBucket)
			if err := p.Run(); err != nil {
				b.Fatal(err)
			}
			sum = s
		}
		_ = sum
	})
}

// BenchmarkPipelineSortStream measures the blocking-operator path: the
// sort stage (chunks gathered into one buffer, one sort at
// end-of-stream, the result re-chunked to the sink) against the
// one-shot sort over a materialized copy.
func BenchmarkPipelineSortStream(b *testing.B) {
	const n = 1 << 19
	b.Run("Materialized", func(b *testing.B) {
		opts := par.Options{}
		out := make([]int64, n)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			xs := make([]int64, n)
			par.For(n, opts, func(j int) { xs[j] = DemoGen(j) })
			copy(out, xs)
			psort.SampleSort(out, opts)
		}
	})
	b.Run("Chunked", func(b *testing.B) {
		cfg := Config{ChunkSize: benchCS, Opts: par.Options{SerialCutoff: benchCS}}
		out := make([]int64, 0, n)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			out = out[:0]
			p := New(cfg).FromFunc(n, DemoGen).Sort().To(&out)
			if err := p.Run(); err != nil {
				b.Fatal(err)
			}
		}
	})
}
