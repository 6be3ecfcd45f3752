package gen

import (
	"math"
	"testing"

	"repro/internal/rng"
)

func TestIntsDistributionsShape(t *testing.T) {
	const n = 10000
	for _, d := range Distributions {
		xs := Ints(n, d, 7)
		if len(xs) != n {
			t.Fatalf("%v: length %d", d, len(xs))
		}
	}
	// Sorted is ascending; Reversed descending.
	s := Ints(n, Sorted, 1)
	r := Ints(n, Reversed, 1)
	for i := 1; i < n; i++ {
		if s[i-1] > s[i] {
			t.Fatal("Sorted not ascending")
		}
		if r[i-1] < r[i] {
			t.Fatal("Reversed not descending")
		}
	}
}

func TestIntsDeterministicPerSeed(t *testing.T) {
	a := Ints(1000, Uniform, 5)
	b := Ints(1000, Uniform, 5)
	c := Ints(1000, Uniform, 6)
	diff := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed produced different data")
		}
		if a[i] != c[i] {
			diff++
		}
	}
	if diff == 0 {
		t.Fatal("different seeds produced identical data")
	}
}

func TestIntsEmpty(t *testing.T) {
	for _, d := range Distributions {
		if len(Ints(0, d, 1)) != 0 {
			t.Fatalf("%v: non-empty for n=0", d)
		}
	}
}

func TestFewUniqueCardinality(t *testing.T) {
	xs := Ints(10000, FewUnique, 3)
	seen := map[int64]bool{}
	for _, v := range xs {
		seen[v] = true
	}
	if len(seen) > 16 {
		t.Fatalf("FewUnique produced %d distinct values", len(seen))
	}
}

func TestNearlySortedMostlySorted(t *testing.T) {
	xs := Ints(10000, NearlySorted, 9)
	inversions := 0
	for i := 1; i < len(xs); i++ {
		if xs[i-1] > xs[i] {
			inversions++
		}
	}
	if inversions == 0 || inversions > 500 {
		t.Fatalf("NearlySorted has %d adjacent inversions", inversions)
	}
}

func TestZipfSkew(t *testing.T) {
	r := rng.New(1)
	z := NewZipf(r, 1.2, 1000)
	counts := map[uint64]int{}
	const n = 50000
	for i := 0; i < n; i++ {
		v := z.Next()
		if v >= 1000 {
			t.Fatalf("Zipf out of range: %d", v)
		}
		counts[v]++
	}
	// Head value must be far more frequent than the median value.
	if counts[0] < 20*counts[500]+1 {
		t.Fatalf("Zipf not skewed: head=%d mid=%d", counts[0], counts[500])
	}
}

func TestNewZipfPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for s <= 1")
		}
	}()
	NewZipf(rng.New(1), 1.0, 10)
}

func TestSkewedWorkTotals(t *testing.T) {
	work := SkewedWork(1000, 1<<20, 0.01, 4)
	if len(work) != 1000 {
		t.Fatal("length")
	}
	total := 0
	maxv := 0
	for _, w := range work {
		if w < 0 {
			t.Fatal("negative work")
		}
		total += w
		if w > maxv {
			maxv = w
		}
	}
	if total < 1<<19 || total > 1<<21 {
		t.Fatalf("total %d far from target", total)
	}
	// Hubs make the max much larger than the mean.
	if maxv < 10*total/1000 {
		t.Fatalf("no skew: max %d vs mean %d", maxv, total/1000)
	}
	if SkewedWork(0, 10, 0.1, 1) != nil {
		t.Fatal("n=0 should be nil")
	}
}

func TestGraphGeneratorsBasicInvariants(t *testing.T) {
	type tc struct {
		name    string
		n, m    int
		exactM  bool
		maxComp int
	}
	er := ErdosRenyi(500, 6, false, 1)
	rm := RMAT(9, 8, false, 2)
	gr := Grid2D(10, 20, false, 3)
	tr := RandomTree(300, false, 4)
	cases := []struct {
		name  string
		g     interface{ N() int }
		wantN int
	}{
		{"er", er, 500}, {"rmat", rm, 512}, {"grid", gr, 200}, {"tree", tr, 300},
	}
	for _, c := range cases {
		if c.g.N() != c.wantN {
			t.Fatalf("%s: n = %d, want %d", c.name, c.g.N(), c.wantN)
		}
	}
	if er.M() != 1500 {
		t.Fatalf("er m = %d, want 1500", er.M())
	}
	if gr.M() != 10*19+9*20 {
		t.Fatalf("grid m = %d", gr.M())
	}
	if tr.M() != 299 {
		t.Fatalf("tree m = %d", tr.M())
	}
	// Trees are connected.
	labels := tr.ConnectedComponentsRef()
	for _, l := range labels {
		if l != 0 {
			t.Fatal("tree not connected")
		}
	}
}

func TestRMATDegreeSkew(t *testing.T) {
	g := RMAT(12, 8, false, 7)
	maxd := g.MaxDegree()
	avg := float64(2*g.M()) / float64(g.N())
	if float64(maxd) < 8*avg {
		t.Fatalf("R-MAT not skewed: max degree %d vs avg %.1f", maxd, avg)
	}
}

func TestWeightedGeneratorsPositiveWeights(t *testing.T) {
	g := ErdosRenyi(200, 8, true, 9)
	g.ForEdges(func(_, _ int, w float64) {
		if w <= 0 || w > 1.1 {
			t.Fatalf("bad weight %v", w)
		}
	})
	if !g.Weighted() {
		t.Fatal("not weighted")
	}
}

func TestComponentsGenerator(t *testing.T) {
	g := Components(4, 50, 6, 10)
	labels := g.ConnectedComponentsRef()
	seen := map[int]bool{}
	for _, l := range labels {
		seen[l] = true
	}
	if len(seen) != 4 {
		t.Fatalf("components = %d, want 4", len(seen))
	}
}

func TestMatrixBasics(t *testing.T) {
	m := RandomMatrix(3, 4, 1)
	if m.Rows != 3 || m.Cols != 4 || len(m.Data) != 12 {
		t.Fatal("shape")
	}
	m.Set(1, 2, 9.5)
	if m.At(1, 2) != 9.5 || m.Row(1)[2] != 9.5 {
		t.Fatal("At/Set/Row")
	}
	c := m.Clone()
	c.Set(0, 0, -1)
	if m.At(0, 0) == -1 {
		t.Fatal("Clone aliases")
	}
	if !m.Equal(m, 0) || m.Equal(c, 0) {
		t.Fatal("Equal")
	}
	if m.Equal(NewMatrix(4, 3), 0) {
		t.Fatal("Equal ignored shape")
	}
	id := Identity(3)
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			want := 0.0
			if i == j {
				want = 1
			}
			if id.At(i, j) != want {
				t.Fatal("Identity")
			}
		}
	}
}

func TestGridBasics(t *testing.T) {
	g := HotPlateGrid(5)
	for j := 0; j < 5; j++ {
		if g.At(0, j) != 100 {
			t.Fatal("top edge")
		}
		if g.At(4, j) != 0 {
			t.Fatal("bottom edge")
		}
	}
	c := g.Clone()
	c.Set(2, 2, 7)
	if g.At(2, 2) == 7 {
		t.Fatal("Clone aliases")
	}
	var sum float64
	for _, v := range g.Data {
		sum += v
	}
	if math.Abs(sum-500) > 1e-12 {
		t.Fatalf("hot plate sum = %v", sum)
	}
}

func TestListGeneratorsInvariants(t *testing.T) {
	l := RandomList(50, 2)
	ref := l.RanksRef()
	if ref[l.Head] != 0 {
		t.Fatal("head rank")
	}
	if ref[l.Tail()] != 49 {
		t.Fatal("tail rank")
	}
	o := OrderedList(5)
	if o.Head != 0 || o.Tail() != 4 {
		t.Fatal("ordered list endpoints")
	}
}
