package psort

import (
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/gen"
	"repro/internal/par"
)

func sortedCopy(xs []int64) []int64 {
	want := append([]int64(nil), xs...)
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	return want
}

func TestAllSortersAllDistributions(t *testing.T) {
	for _, s := range Sorters {
		for _, d := range gen.Distributions {
			for _, n := range []int{0, 1, 2, 100, 5000} {
				xs := gen.Ints(n, d, 1234)
				want := sortedCopy(xs)
				s.Sort(xs, par.Options{Procs: 4})
				for i := range want {
					if xs[i] != want[i] {
						t.Fatalf("%s on %v n=%d: mismatch at index %d", s.Name, d, n, i)
					}
				}
			}
		}
	}
}

// TestSortersAcrossProcs runs every sorter over every generator shape
// and three edge inputs at several worker counts. From 2 048 keys at
// Procs > 1 sample and radix sort run through distribute, so its leaves
// see empty buckets (equal splitters on few-unique keys), all-equal
// buckets and narrow ones. The negative keys straddle zero, and 2 053
// is prime, so no worker count divides it evenly.
func TestSortersAcrossProcs(t *testing.T) {
	type input struct {
		name string
		xs   []int64
	}
	var inputs []input
	for _, d := range gen.Distributions {
		inputs = append(inputs, input{d.String(), gen.Ints(20000, d, 5)})
	}
	equal := make([]int64, 4096)
	for i := range equal {
		equal[i] = -3
	}
	negative := gen.Ints(20000, gen.Uniform, 6)
	for i := range negative {
		negative[i] -= 1 << 62
	}
	inputs = append(inputs,
		input{"all-equal", equal},
		input{"negative", negative},
		input{"prime-n", gen.Ints(2053, gen.Zipf, 7)})
	for _, in := range inputs {
		want := sortedCopy(in.xs)
		for _, s := range Sorters {
			for _, p := range []int{1, 2, 3, 7, 8} {
				xs := append([]int64(nil), in.xs...)
				s.Sort(xs, par.Options{Procs: p})
				for i := range want {
					if xs[i] != want[i] {
						t.Fatalf("%s on %s procs=%d: mismatch at %d", s.Name, in.name, p, i)
					}
				}
			}
		}
	}
}

func TestSampleSortQuick(t *testing.T) {
	f := func(raw []int64, procs uint8) bool {
		xs := append([]int64(nil), raw...)
		want := sortedCopy(xs)
		SampleSort(xs, par.Options{Procs: int(procs%8) + 1})
		for i := range want {
			if xs[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestMergeSortLargeCrossesGrain(t *testing.T) {
	xs := gen.Ints(100000, gen.Zipf, 17)
	want := sortedCopy(xs)
	MergeSort(xs, par.Options{Procs: 8, Grain: 1024})
	for i := range want {
		if xs[i] != want[i] {
			t.Fatalf("mismatch at %d", i)
		}
	}
}

func TestRadixSortNegativeKeys(t *testing.T) {
	xs := []int64{}
	for i := -5000; i < 5000; i++ {
		xs = append(xs, int64(-i*7))
	}
	want := sortedCopy(xs)
	RadixSort(xs, par.Options{Procs: 4})
	for i := range want {
		if xs[i] != want[i] {
			t.Fatalf("mismatch at %d: %d vs %d", i, xs[i], want[i])
		}
	}
}

func TestBucketOf(t *testing.T) {
	splitters := []int64{10, 20, 30}
	cases := map[int64]int{5: 0, 10: 1, 15: 1, 20: 2, 29: 2, 30: 3, 99: 3}
	for v, want := range cases {
		if got := bucketOf(v, splitters); got != want {
			t.Fatalf("bucketOf(%d) = %d, want %d", v, got, want)
		}
	}
	if bucketOf(5, nil) != 0 {
		t.Fatal("bucketOf with no splitters")
	}
}

func TestIsSortedParallel(t *testing.T) {
	opts := par.Options{Procs: 4, Grain: 16}
	if !IsSortedParallel([]int64{1, 2, 2, 3}, opts) {
		t.Fatal("sorted slice reported unsorted")
	}
	if IsSortedParallel([]int64{1, 3, 2}, opts) {
		t.Fatal("unsorted slice reported sorted")
	}
	if !IsSortedParallel(nil, opts) || !IsSortedParallel([]int64{7}, opts) {
		t.Fatal("degenerate slices")
	}
	big := gen.Ints(100000, gen.Uniform, 3)
	SampleSort(big, opts)
	if !IsSortedParallel(big, opts) {
		t.Fatal("sample sort output unsorted")
	}
}

func TestSampleSortDeterministic(t *testing.T) {
	a := gen.Ints(50000, gen.Uniform, 9)
	b := append([]int64(nil), a...)
	SampleSort(a, par.Options{Procs: 4})
	SampleSort(b, par.Options{Procs: 4})
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic output at %d", i)
		}
	}
}
