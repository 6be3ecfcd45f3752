package psort

import (
	"fmt"
	"testing"

	"repro/internal/exec"
	"repro/internal/par"
	"repro/internal/rng"
)

// BenchmarkParallelSorts times the four parallel sorts at Procs 1 and
// 2 on a dedicated 2-worker executor, over uniform 64-bit keys, and
// counting sort over uniform 16-bit keys: wider keys spread past
// CountingMaxRange and it hands them to RadixSort, while 16-bit keys
// stay within parCountRange, so Procs 2 runs the parallel count. Each
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
		mask uint64
	}{
		{"sample", SampleSort, ^uint64(0)},
		{"radix", RadixSort, ^uint64(0)},
		{"merge", MergeSort, ^uint64(0)},
		{"counting-16bit", CountingSort, 1<<16 - 1},
	}
	for _, s := range sorts {
		for _, procs := range []int{1, 2} {
			for _, n := range []int{1 << 16, 1 << 18, 1 << 20} {
				b.Run(fmt.Sprintf("%s/procs=%d/n=%d", s.name, procs, n), func(b *testing.B) {
					r := rng.New(uint64(n))
					base := make([]int64, n)
					for i := range base {
						base[i] = int64(r.Uint64() & s.mask)
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
