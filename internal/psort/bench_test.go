package psort

import (
	"fmt"
	"testing"

	"repro/internal/exec"
	"repro/internal/par"
	"repro/internal/rng"
)

// BenchmarkParallelSorts times the four parallel sorts at Procs 1 and
// 2 on a dedicated 2-worker executor, over uniform 64-bit keys. Each
// iteration restores the input with a copy (about 0.3 ns/key) and
// sorts it; ns/key is the iteration time over n. Compare a parent and
// a change by building both test binaries with `go test -c` and
// alternating them (BENCHMARKS.md, "One distribution skeleton").
func BenchmarkParallelSorts(b *testing.B) {
	e := exec.New(2)
	defer e.Close()
	sorts := []struct {
		name string
		sort func([]int64, par.Options)
	}{
		{"sample", SampleSort},
		{"radix", RadixSort},
		{"merge", MergeSort},
		{"counting", CountingSort},
	}
	for _, s := range sorts {
		for _, procs := range []int{1, 2} {
			for _, n := range []int{1 << 16, 1 << 18, 1 << 20} {
				b.Run(fmt.Sprintf("%s/procs=%d/n=%d", s.name, procs, n), func(b *testing.B) {
					r := rng.New(uint64(n))
					base := make([]int64, n)
					for i := range base {
						base[i] = int64(r.Uint64())
					}
					xs := make([]int64, n)
					opts := par.Options{Procs: procs, Executor: e}
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						copy(xs, base)
						s.sort(xs, opts)
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/key")
				})
			}
		}
	}
}
