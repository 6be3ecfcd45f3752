package difftest

import (
	"fmt"
	"testing"

	"repro/internal/gen"
	"repro/internal/par"
	"repro/internal/seq"
)

func input(n int) []int64 {
	return gen.Ints(n, gen.Uniform, uint64(n)*13+7)
}

func TestDiffScan(t *testing.T) {
	matrix := fullMatrix()
	for _, n := range sizes() {
		xs := input(n)
		wantIncl := make([]int64, n)
		seq.Scan(wantIncl, xs)
		wantExcl := make([]int64, n)
		var acc int64
		for i, x := range xs {
			wantExcl[i] = acc
			acc += x
		}
		t.Run(fmt.Sprintf("n%d", n), func(t *testing.T) {
			forEach(t, matrix, func(t *testing.T, opts par.Options) {
				dst := make([]int64, n)
				par.ScanInclusive(dst, xs, opts, 0, func(a, b int64) int64 { return a + b })
				eqInt64(t, "inclusive", dst, wantIncl)
				par.ScanExclusive(dst, xs, opts, 0, func(a, b int64) int64 { return a + b })
				eqInt64(t, "exclusive", dst, wantExcl)
			})
		})
	}
}

func TestDiffReduce(t *testing.T) {
	matrix := fullMatrix()
	for _, n := range sizes() {
		xs := input(n)
		var wantSum int64
		for _, x := range xs {
			wantSum += x
		}
		wantCount := 0
		for _, x := range xs {
			if x&3 == 0 {
				wantCount++
			}
		}
		t.Run(fmt.Sprintf("n%d", n), func(t *testing.T) {
			forEach(t, matrix, func(t *testing.T, opts par.Options) {
				if got := par.Sum(xs, opts); got != wantSum {
					t.Fatalf("Sum = %d, want %d", got, wantSum)
				}
				got := par.Count(n, opts, func(i int) bool { return xs[i]&3 == 0 })
				if got != wantCount {
					t.Fatalf("Count = %d, want %d", got, wantCount)
				}
			})
		})
	}
}

func TestDiffPack(t *testing.T) {
	matrix := fullMatrix()
	pred := func(v int64) bool { return v&1 == 0 }
	for _, n := range sizes() {
		xs := input(n)
		var want []int64
		var wantIdx []int
		for i, x := range xs {
			if pred(x) {
				want = append(want, x)
				wantIdx = append(wantIdx, i)
			}
		}
		t.Run(fmt.Sprintf("n%d", n), func(t *testing.T) {
			forEach(t, matrix, func(t *testing.T, opts par.Options) {
				dst := make([]int64, n)
				k := par.PackInto(dst, xs, opts, pred)
				eqInt64(t, "PackInto", dst[:k], want)
				idx := make([]int, n)
				k = par.PackIndexInto(idx, n, opts, func(i int) bool { return pred(xs[i]) })
				eqInts(t, "PackIndexInto", idx[:k], wantIdx)
			})
		})
	}
}

func TestDiffHistogram(t *testing.T) {
	matrix := fullMatrix()
	const buckets = 97 // prime: uneven merge bands
	bucket := func(v int64) int { return int(uint64(v) % buckets) }
	for _, n := range sizes() {
		xs := input(n)
		want := make([]int, buckets)
		for _, x := range xs {
			want[bucket(x)]++
		}
		t.Run(fmt.Sprintf("n%d", n), func(t *testing.T) {
			forEach(t, matrix, func(t *testing.T, opts par.Options) {
				out := make([]int, buckets)
				par.HistogramInto(out, xs, opts, bucket)
				eqInts(t, "HistogramInto", out, want)
			})
		})
	}
}

func TestDiffMerge(t *testing.T) {
	matrix := fullMatrix()
	for _, n := range sizes() {
		a := input(n)
		b := input(n / 2)
		seq.Quicksort(a)
		seq.Quicksort(b)
		want := make([]int64, len(a)+len(b))
		i, j := 0, 0
		for k := range want {
			if j >= len(b) || (i < len(a) && a[i] <= b[j]) {
				want[k] = a[i]
				i++
			} else {
				want[k] = b[j]
				j++
			}
		}
		t.Run(fmt.Sprintf("n%d", n), func(t *testing.T) {
			forEach(t, matrix, func(t *testing.T, opts par.Options) {
				dst := make([]int64, len(a)+len(b))
				par.Merge(dst, a, b, opts, func(x, y int64) bool { return x < y })
				eqInt64(t, "Merge", dst, want)
			})
		})
	}
}
