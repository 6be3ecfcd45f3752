package seq

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/gen"
)

// radixSortAlloc is RadixSort as a direct caller uses it: no buffer.
func radixSortAlloc(xs []int64) { RadixSort(xs, nil) }

func TestSortsMatchStdlib(t *testing.T) {
	sorts := map[string]func([]int64){
		"quicksort": Quicksort,
		"mergesort": Mergesort,
		"radixsort": radixSortAlloc,
	}
	for name, fn := range sorts {
		for _, d := range gen.Distributions {
			for _, n := range []int{0, 1, 2, 3, 10, 100, 1000, 4097} {
				xs := gen.Ints(n, d, 99)
				want := append([]int64(nil), xs...)
				sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
				fn(xs)
				for i := range want {
					if xs[i] != want[i] {
						t.Fatalf("%s on %v n=%d: mismatch at %d", name, d, n, i)
					}
				}
			}
		}
	}
}

func TestSortsQuick(t *testing.T) {
	for name, fn := range map[string]func([]int64){
		"quicksort": Quicksort, "mergesort": Mergesort, "radixsort": radixSortAlloc,
	} {
		f := func(xs []int64) bool {
			cp := append([]int64(nil), xs...)
			fn(cp)
			want := append([]int64(nil), xs...)
			sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
			for i := range want {
				if cp[i] != want[i] {
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

func TestRadixSortNegative(t *testing.T) {
	xs := []int64{5, -1, 0, math.MinInt64, math.MaxInt64, -5, 3}
	RadixSort(xs, make([]int64, len(xs)+1)) // a caller's buffer, longer than xs
	if !sort.SliceIsSorted(xs, func(i, j int) bool { return xs[i] < xs[j] }) {
		t.Fatalf("radix sort mishandled negatives: %v", xs)
	}
}

func TestInsertionSortSmall(t *testing.T) {
	xs := []int64{3, 1, 2}
	InsertionSort(xs)
	if xs[0] != 1 || xs[1] != 2 || xs[2] != 3 {
		t.Fatalf("insertion sort: %v", xs)
	}
}

func TestScan(t *testing.T) {
	xs := []int64{1, -2, 3, 4}
	dst := make([]int64, 4)
	Scan(dst, xs)
	want := []int64{1, -1, 2, 6}
	for i := range want {
		if dst[i] != want[i] {
			t.Fatalf("Scan = %v", dst)
		}
	}
}

func TestListRank(t *testing.T) {
	for _, n := range []int{1, 2, 10, 1000} {
		l := gen.RandomList(n, 7)
		got := ListRank(l)
		want := l.RanksRef()
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("n=%d: rank[%d] = %d, want %d", n, i, got[i], want[i])
			}
		}
	}
}

func TestCCAgree(t *testing.T) {
	g := gen.ErdosRenyi(2000, 3.0, false, 5) // below connectivity threshold: many components
	ref := g.ConnectedComponentsRef()
	bfs := ConnectedComponentsBFS(g)
	uf := ConnectedComponentsUF(g)
	if !sameParition(ref, bfs) {
		t.Fatal("BFS CC disagrees with reference")
	}
	if !sameParition(ref, uf) {
		t.Fatal("union-find CC disagrees with reference")
	}
}

// sameParition reports whether two labelings induce the same partition.
func sameParition(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	fwd := map[int]int{}
	rev := map[int]int{}
	for i := range a {
		if v, ok := fwd[a[i]]; ok && v != b[i] {
			return false
		}
		if v, ok := rev[b[i]]; ok && v != a[i] {
			return false
		}
		fwd[a[i]] = b[i]
		rev[b[i]] = a[i]
	}
	return true
}

func TestCCComponentsCount(t *testing.T) {
	g := gen.Components(7, 100, 8, 3)
	labels := ConnectedComponentsUF(g)
	seen := map[int]bool{}
	for _, l := range labels {
		seen[l] = true
	}
	if len(seen) != 7 {
		t.Fatalf("component count = %d, want 7", len(seen))
	}
}

func TestUnionFind(t *testing.T) {
	u := NewUnionFind(10)
	if !u.Union(0, 1) || !u.Union(1, 2) {
		t.Fatal("fresh unions returned false")
	}
	if u.Union(0, 2) {
		t.Fatal("redundant union returned true")
	}
	if u.Find(0) != u.Find(2) {
		t.Fatal("0 and 2 should share a root")
	}
	if u.Find(3) == u.Find(0) {
		t.Fatal("3 should be separate")
	}
}

func TestMSTAlgorithmsAgree(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3} {
		g := gen.ErdosRenyi(500, 6, true, seed)
		k := MSTKruskal(g)
		p := MSTPrim(g)
		if math.Abs(k-p) > 1e-9*(1+math.Abs(k)) {
			t.Fatalf("seed %d: Kruskal %v != Prim %v", seed, k, p)
		}
	}
}

func TestMSTTree(t *testing.T) {
	// On a tree, the MST weight is the total edge weight.
	g := gen.RandomTree(200, true, 11)
	var want float64
	g.ForEdges(func(_, _ int, w float64) { want += w })
	if got := MSTKruskal(g); math.Abs(got-want) > 1e-9 {
		t.Fatalf("tree MST = %v, want %v", got, want)
	}
}

func TestMatmulIdentity(t *testing.T) {
	a := gen.RandomMatrix(17, 17, 3)
	i := gen.Identity(17)
	c := Matmul(a, i)
	if !c.Equal(a, 1e-12) {
		t.Fatal("A*I != A")
	}
}

func TestMatmulKnown(t *testing.T) {
	a := gen.NewMatrix(2, 3)
	b := gen.NewMatrix(3, 2)
	copy(a.Data, []float64{1, 2, 3, 4, 5, 6})
	copy(b.Data, []float64{7, 8, 9, 10, 11, 12})
	c := Matmul(a, b)
	want := []float64{58, 64, 139, 154}
	for i, v := range want {
		if math.Abs(c.Data[i]-v) > 1e-12 {
			t.Fatalf("C = %v, want %v", c.Data, want)
		}
	}
}

func TestMatmulDimensionPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on dimension mismatch")
		}
	}()
	Matmul(gen.NewMatrix(2, 3), gen.NewMatrix(2, 3))
}

func TestJacobiConvergesToward25(t *testing.T) {
	// With the top edge at 100 and others at 0, the center of the plate
	// converges to the harmonic mean of boundaries (=25 at center of a
	// square by symmetry of the discrete Laplace problem).
	g := gen.HotPlateGrid(33)
	out := Jacobi(g, 3000)
	center := out.At(16, 16)
	if math.Abs(center-25) > 0.5 {
		t.Fatalf("center after 3000 iters = %v, want ~25", center)
	}
	// Boundary must be untouched.
	if out.At(0, 16) != 100 || out.At(32, 16) != 0 {
		t.Fatal("Jacobi modified boundary cells")
	}
}

func TestJacobiMonotoneHeating(t *testing.T) {
	g := gen.HotPlateGrid(17)
	a := Jacobi(g, 10)
	b := Jacobi(g, 100)
	// More iterations propagate more heat into the interior.
	if b.At(8, 8) < a.At(8, 8) {
		t.Fatalf("interior cooled with more iterations: %v -> %v", a.At(8, 8), b.At(8, 8))
	}
}
