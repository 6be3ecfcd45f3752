package par

import (
	"testing"

	"repro/internal/scratch"
)

// The concurrent-traffic benchmark models the ROADMAP's heavy-traffic
// scenario: many request goroutines each issuing small kernel calls
// (a histogram, a scan, a pack — the shape of a typical aggregation
// endpoint) against one process-wide runtime. Without scratch every
// call allocates its working buffers, so the aggregate allocation rate
// scales with request throughput and the GC becomes the bottleneck;
// with the pool, steady-state traffic recycles the same slabs.
//
// Run with -benchmem: the scratch=on variant should show both higher
// throughput and orders-of-magnitude fewer B/op.
func benchmarkTraffic(b *testing.B, opts Options) {
	const n = 8192
	base := make([]int64, n)
	for i := range base {
		base[i] = int64(i*2654435761) % 9973
	}
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		xs := append([]int64(nil), base...)
		dst := make([]int64, n)
		hist := make([]int, 4096)
		req := Options{Procs: 2, SerialCutoff: 1024,
			Executor: opts.Executor, Scratch: opts.Scratch}
		for pb.Next() {
			HistogramInto(hist, xs, req, func(v int64) int { return int(v) & 4095 })
			ScanInclusive(dst, xs, req, 0, func(a, b int64) int64 { return a + b })
			PackInto(dst, xs, req, func(v int64) bool { return v&7 == 0 })
		}
	})
}

func BenchmarkTrafficScratchOn(b *testing.B)  { benchmarkTraffic(b, Options{}) }
func BenchmarkTrafficScratchOff(b *testing.B) { benchmarkTraffic(b, Options{Scratch: scratch.Off}) }
