package psort

import (
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/gen"
	"repro/internal/sched"
)

func TestQuickSortStealAllDistributions(t *testing.T) {
	pool := sched.NewPoolOn(nil, 4)
	for _, d := range gen.Distributions {
		for _, n := range []int{0, 1, 2, 3, 100, 5000, 100000} {
			xs := gen.Ints(n, d, 77)
			want := sortedCopy(xs)
			QuickSortSteal(xs, pool)
			for i := range want {
				if xs[i] != want[i] {
					t.Fatalf("%v n=%d: mismatch at %d", d, n, i)
				}
			}
		}
	}
}

func TestQuickSortStealAcrossPools(t *testing.T) {
	xs0 := gen.Ints(50000, gen.Zipf, 3)
	want := sortedCopy(xs0)
	for _, p := range []int{1, 2, 8} {
		pool := sched.NewPoolOn(nil, p)
		xs := append([]int64(nil), xs0...)
		QuickSortSteal(xs, pool)
		for i := range want {
			if xs[i] != want[i] {
				t.Fatalf("procs=%d: mismatch at %d", p, i)
			}
		}
	}
}

func TestQuickSortStealQuick(t *testing.T) {
	pool := sched.NewPoolOn(nil, 3)
	f := func(raw []int64) bool {
		xs := append([]int64(nil), raw...)
		want := sortedCopy(xs)
		QuickSortSteal(xs, pool)
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

func TestHoarePartitionInvariants(t *testing.T) {
	for _, tc := range [][]int64{
		{2, 1}, {1, 2}, {3, 3, 3, 3}, {5, 1, 4, 2, 3}, {1, 1, 2, 2, 1, 1},
	} {
		xs := append([]int64(nil), tc...)
		p := hoarePartition(xs)
		if p <= 0 || p >= len(xs) {
			t.Fatalf("%v: split %d not interior", tc, p)
		}
		maxLeft := xs[0]
		for _, v := range xs[:p] {
			if v > maxLeft {
				maxLeft = v
			}
		}
		for _, v := range xs[p:] {
			if v < maxLeft {
				// Partition property: everything left <= everything
				// right is too strong for Hoare (equal keys may split
				// arbitrarily); check against the recomputed boundary.
				minRight := xs[p]
				for _, w := range xs[p:] {
					if w < minRight {
						minRight = w
					}
				}
				if maxLeft > minRight {
					t.Fatalf("%v -> %v | %v: left max %d > right min %d",
						tc, xs[:p], xs[p:], maxLeft, minRight)
				}
				break
			}
		}
	}
}

func TestHoarePartitionAllEqualTerminates(t *testing.T) {
	xs := make([]int64, 10000)
	p := hoarePartition(xs)
	if p <= 0 || p >= len(xs) {
		t.Fatalf("all-equal split %d", p)
	}
	pool := sched.NewPoolOn(nil, 2)
	QuickSortSteal(xs, pool) // must terminate
	if !sort.SliceIsSorted(xs, func(i, j int) bool { return xs[i] < xs[j] }) {
		t.Fatal("unsorted")
	}
}
