package metatest

import (
	"fmt"
	"testing"

	"repro/internal/gen"
	"repro/internal/par"
	"repro/internal/psel"
	"repro/internal/psort"
)

// sorters lists the three parallel sorts under their table names.
var sorters = []struct {
	name string
	sort func([]int64, par.Options)
}{
	{"samplesort", psort.SampleSort},
	{"mergesort", psort.MergeSort},
	{"radix", psort.RadixSort},
}

// input builds a duplicate-rich workload with negative keys (radix's
// sign-flip path) and ties (stability-adjacent partition boundaries).
func input(n int, seed uint64) []int64 {
	xs := gen.Ints(n, gen.Uniform, seed)
	for i := range xs {
		xs[i] = xs[i]%4099 - 2049
	}
	return xs
}

// TestMetaSortPermutationInvariance: sort(perm(xs)) == sort(xs) for
// every sorter, size and configuration.
func TestMetaSortPermutationInvariance(t *testing.T) {
	for _, s := range sorters {
		t.Run(s.name, func(t *testing.T) {
			forEach(t, smallMatrix(), func(t *testing.T, opts par.Options) {
				for _, n := range sizes() {
					xs := input(n, uint64(n)+1)
					perm := permutation(n, uint64(n)*3+7)
					a := append([]int64(nil), xs...)
					b := permute(xs, perm)
					s.sort(a, opts)
					s.sort(b, opts)
					eqInt64(t, fmt.Sprintf("%s n=%d perm", s.name, n), b, a)
				}
			})
		})
	}
}

// TestMetaSortIdempotence: sorting a sorted array is the identity
// (and a second sort changes nothing).
func TestMetaSortIdempotence(t *testing.T) {
	for _, s := range sorters {
		t.Run(s.name, func(t *testing.T) {
			forEach(t, smallMatrix(), func(t *testing.T, opts par.Options) {
				for _, n := range sizes() {
					xs := input(n, uint64(n)+11)
					s.sort(xs, opts)
					once := append([]int64(nil), xs...)
					s.sort(xs, opts)
					eqInt64(t, fmt.Sprintf("%s n=%d idempotent", s.name, n), xs, once)
				}
			})
		})
	}
}

// TestMetaSortTranslation: sort(xs + c) == sort(xs) + c, the
// order-embedding relation every comparison (and flip-corrected radix)
// sort must satisfy exactly for integers.
func TestMetaSortTranslation(t *testing.T) {
	const shift = int64(1_000_003)
	for _, s := range sorters {
		t.Run(s.name, func(t *testing.T) {
			forEach(t, smallMatrix(), func(t *testing.T, opts par.Options) {
				for _, n := range sizes() {
					xs := input(n, uint64(n)+23)
					a := append([]int64(nil), xs...)
					b := make([]int64, n)
					for i, v := range xs {
						b[i] = v + shift
					}
					s.sort(a, opts)
					s.sort(b, opts)
					for i := range a {
						if b[i] != a[i]+shift {
							t.Fatalf("%s n=%d: sort(xs+c)[%d] = %d, want %d",
								s.name, n, i, b[i], a[i]+shift)
						}
					}
				}
			})
		})
	}
}

// TestMetaSelectPermutationInvariance: the k-th smallest is a multiset
// property — any reordering of the input must give the same answer.
func TestMetaSelectPermutationInvariance(t *testing.T) {
	forEach(t, smallMatrix(), func(t *testing.T, opts par.Options) {
		for _, n := range sizes() {
			xs := input(n, uint64(n)+31)
			perm := permutation(n, uint64(n)*5+13)
			ys := permute(xs, perm)
			for _, k := range []int{0, n / 3, n - 1} {
				a := psel.Select(xs, k, opts)
				b := psel.Select(ys, k, opts)
				if a != b {
					t.Fatalf("n=%d k=%d: Select = %d on xs but %d on perm(xs)", n, k, a, b)
				}
				if want := psel.SelectSeq(xs, k); a != want {
					t.Fatalf("n=%d k=%d: Select = %d, oracle %d", n, k, a, want)
				}
			}
		}
	})
}

// TestMetaHistogramPermutationInvariance: bucket counts are multiset
// properties.
func TestMetaHistogramPermutationInvariance(t *testing.T) {
	const buckets = 97
	bucket := func(v int64) int { return int(uint64(v) % buckets) }
	forEach(t, fullMatrix(), func(t *testing.T, opts par.Options) {
		for _, n := range sizes() {
			xs := input(n, uint64(n)+41)
			ys := permute(xs, permutation(n, uint64(n)*7+3))
			a, b := make([]int, buckets), make([]int, buckets)
			par.HistogramInto(a, xs, opts, bucket)
			par.HistogramInto(b, ys, opts, bucket)
			eqInts(t, fmt.Sprintf("n=%d histogram perm", n), b, a)
		}
	})
}

// TestMetaScanLinearity: prefix sums are linear — scan(a*xs) ==
// a*scan(xs), and translating every element by c translates scan[i]
// by (i+1)*c. Exact for int64 (wrap-around included).
func TestMetaScanLinearity(t *testing.T) {
	add := func(a, b int64) int64 { return a + b }
	forEach(t, fullMatrix(), func(t *testing.T, opts par.Options) {
		for _, n := range sizes() {
			xs := input(n, uint64(n)+53)
			base := make([]int64, n)
			par.ScanInclusive(base, xs, opts, 0, add)

			const a = int64(3)
			scaled := make([]int64, n)
			for i, v := range xs {
				scaled[i] = a * v
			}
			got := make([]int64, n)
			par.ScanInclusive(got, scaled, opts, 0, add)
			for i := range got {
				if got[i] != a*base[i] {
					t.Fatalf("n=%d: scan(a*xs)[%d] = %d, want %d", n, i, got[i], a*base[i])
				}
			}

			const c = int64(17)
			shifted := make([]int64, n)
			for i, v := range xs {
				shifted[i] = v + c
			}
			par.ScanInclusive(got, shifted, opts, 0, add)
			for i := range got {
				if want := base[i] + int64(i+1)*c; got[i] != want {
					t.Fatalf("n=%d: scan(xs+c)[%d] = %d, want %d", n, i, got[i], want)
				}
			}
		}
	})
}

// TestMetaReducePermutationAndScaling: Sum is permutation-invariant
// and commutes with scaling (exact integer arithmetic).
func TestMetaReducePermutationAndScaling(t *testing.T) {
	forEach(t, fullMatrix(), func(t *testing.T, opts par.Options) {
		for _, n := range sizes() {
			xs := input(n, uint64(n)+67)
			ys := permute(xs, permutation(n, uint64(n)*11+5))
			a := par.Sum(xs, opts)
			if b := par.Sum(ys, opts); b != a {
				t.Fatalf("n=%d: Sum(perm(xs)) = %d, want %d", n, b, a)
			}
			scaled := make([]int64, n)
			for i, v := range xs {
				scaled[i] = -9 * v
			}
			if b := par.Sum(scaled, opts); b != -9*a {
				t.Fatalf("n=%d: Sum(-9*xs) = %d, want %d", n, b, -9*a)
			}
		}
	})
}
