package seq

import (
	"fmt"
	"testing"

	"repro/internal/gen"
)

// coldRing is the total size of BenchmarkRadixLeaf's cold buffers: more
// than the 105 MiB L3 of the 2-vCPU Xeon its rows were read on.
const coldRing = 128 << 20

// BenchmarkRadixLeaf times RadixSort on uniform 63-bit keys through a
// buffer the caller supplies, as a scratch arena's does. The hot arm
// sorts through one buffer, whose lines the last iteration left in
// cache. The cold arm takes the next buffer of a ring of coldRing bytes
// on each iteration, so a buffer was last written coldRing bytes of
// other buffers ago, as a pooled buffer is when a served sort reuses it.
// Each iteration restores the input with a copy (so the keys are hot,
// as a request's are just off the socket) and sorts it; ns/key is the
// iteration time over n.
func BenchmarkRadixLeaf(b *testing.B) {
	ring := make([]int64, coldRing/8)
	for i := range ring {
		ring[i] = int64(i)
	}
	for _, n := range []int{1 << 10, 1 << 11, 1 << 12, 1 << 13, 1 << 16, 1 << 18} {
		base := gen.Ints(n, gen.Uniform, uint64(n))
		xs := make([]int64, n)
		for _, arm := range []struct {
			name string
			bufs int
		}{{"hot", 1}, {"cold", len(ring) / n}} {
			b.Run(fmt.Sprintf("%s/n=%d", arm.name, n), func(b *testing.B) {
				copy(xs, base)
				RadixSort(xs, ring[:n])
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					k := i % arm.bufs
					copy(xs, base)
					RadixSort(xs, ring[k*n:(k+1)*n])
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/key")
			})
		}
	}
}
