package par

import (
	"sync/atomic"
	"testing"
	"testing/quick"
)

// allOptions enumerates representative schedules and worker counts the
// primitive tests sweep over.
func allOptions() []Options {
	var out []Options
	for _, p := range []int{0, 1, 2, 3, 4, 8} {
		for _, pol := range Policies {
			for _, g := range []int{0, 1, 7, 100} {
				out = append(out, Options{Procs: p, Policy: pol, Grain: g})
			}
		}
	}
	return out
}

func TestForCoversAllIndicesOnce(t *testing.T) {
	for _, opts := range allOptions() {
		for _, n := range []int{0, 1, 2, 10, 1000, 1023} {
			hits := make([]int32, n)
			For(n, opts, func(i int) { atomic.AddInt32(&hits[i], 1) })
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("opts=%+v n=%d: index %d visited %d times", opts, n, i, h)
				}
			}
		}
	}
}

func TestForRangePartition(t *testing.T) {
	for _, opts := range allOptions() {
		n := 777
		hits := make([]int32, n)
		ForRange(n, opts, func(lo, hi int) {
			if lo >= hi {
				t.Errorf("opts=%+v: empty or inverted range [%d,%d)", opts, lo, hi)
			}
			for i := lo; i < hi; i++ {
				atomic.AddInt32(&hits[i], 1)
			}
		})
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("opts=%+v: index %d visited %d times", opts, i, h)
			}
		}
	}
}

func TestForZeroAndNegative(t *testing.T) {
	called := false
	For(0, Options{}, func(i int) { called = true })
	For(-5, Options{}, func(i int) { called = true })
	if called {
		t.Fatal("body called for non-positive n")
	}
}

func TestReduceSum(t *testing.T) {
	xs := make([]int64, 10000)
	var want int64
	for i := range xs {
		xs[i] = int64(i * 3)
		want += xs[i]
	}
	for _, opts := range allOptions() {
		got := Sum(xs, opts)
		if got != want {
			t.Fatalf("opts=%+v: Sum = %d, want %d", opts, got, want)
		}
	}
}

func TestReduceNonCommutative(t *testing.T) {
	// String concatenation is associative but not commutative; Reduce
	// must combine blocks in index order.
	n := 500
	want := ""
	for i := 0; i < n; i++ {
		want += string(rune('a' + i%26))
	}
	got := Reduce(n, Options{Procs: 7, Grain: 1}, "",
		func(a, b string) string { return a + b },
		func(i int) string { return string(rune('a' + i%26)) })
	if got != want {
		t.Fatalf("non-commutative reduce broke ordering")
	}
}

func TestReduceEmpty(t *testing.T) {
	got := Reduce(0, Options{}, 42, func(a, b int) int { return a + b }, func(i int) int { return 1 })
	if got != 42 {
		t.Fatalf("empty reduce = %d, want identity 42", got)
	}
}

func TestCount(t *testing.T) {
	got := Count(1000, Options{Procs: 4, Grain: 10}, func(i int) bool { return i%3 == 0 })
	want := 334 // 0,3,...,999
	if got != want {
		t.Fatalf("Count = %d, want %d", got, want)
	}
}

func TestScanInclusiveMatchesSequential(t *testing.T) {
	for _, opts := range allOptions() {
		for _, n := range []int{0, 1, 2, 100, 1000} {
			xs := make([]int, n)
			for i := range xs {
				xs[i] = i%7 - 3
			}
			dst := make([]int, n)
			ScanInclusive(dst, xs, opts, 0, func(a, b int) int { return a + b })
			acc := 0
			for i, x := range xs {
				acc += x
				if dst[i] != acc {
					t.Fatalf("opts=%+v n=%d: inclusive scan[%d] = %d, want %d", opts, n, i, dst[i], acc)
				}
			}
		}
	}
}

func TestScanExclusiveMatchesSequential(t *testing.T) {
	for _, opts := range allOptions() {
		n := 513
		xs := make([]int, n)
		for i := range xs {
			xs[i] = i + 1
		}
		dst := make([]int, n)
		ScanExclusive(dst, xs, opts, 0, func(a, b int) int { return a + b })
		acc := 0
		for i, x := range xs {
			if dst[i] != acc {
				t.Fatalf("opts=%+v: exclusive scan[%d] = %d, want %d", opts, i, dst[i], acc)
			}
			acc += x
		}
	}
}

func TestScanInPlaceAliasing(t *testing.T) {
	xs := []int{1, 2, 3, 4, 5, 6, 7, 8}
	ScanInclusive(xs, xs, Options{Procs: 4, Grain: 1}, 0, func(a, b int) int { return a + b })
	want := []int{1, 3, 6, 10, 15, 21, 28, 36}
	for i := range want {
		if xs[i] != want[i] {
			t.Fatalf("aliased scan[%d] = %d, want %d", i, xs[i], want[i])
		}
	}
}

func TestScanNonCommutativeOperator(t *testing.T) {
	// Matrix-like 2x2 composition via affine maps f(x)=a*x+b represented
	// as pairs; composition is associative, not commutative.
	type affine struct{ a, b int }
	comp := func(f, g affine) affine { return affine{f.a * g.a, g.a*f.b + g.b} }
	id := affine{1, 0}
	n := 200
	xs := make([]affine, n)
	for i := range xs {
		xs[i] = affine{(i % 3) + 1, i % 5}
	}
	got := make([]affine, n)
	ScanInclusive(got, xs, Options{Procs: 5, Grain: 8}, id, comp)
	acc := id
	for i, x := range xs {
		acc = comp(acc, x)
		if got[i] != acc {
			t.Fatalf("non-commutative scan diverged at %d", i)
		}
	}
}

func TestPrefixSums(t *testing.T) {
	counts := []int{3, 0, 5, 1}
	offsets := make([]int, len(counts))
	total := PrefixSumsInto(offsets, counts, Options{Procs: 2, Grain: 1})
	wantOff := []int{0, 3, 3, 8}
	if total != 9 {
		t.Fatalf("total = %d", total)
	}
	for i := range wantOff {
		if offsets[i] != wantOff[i] {
			t.Fatalf("offsets = %v", offsets)
		}
	}
	if total := PrefixSumsInto(nil, nil, Options{}); total != 0 {
		t.Fatal("empty PrefixSumsInto total nonzero")
	}
}

func TestPackPreservesOrder(t *testing.T) {
	for _, opts := range allOptions() {
		n := 1000
		xs := make([]int, n)
		for i := range xs {
			xs[i] = i
		}
		got := make([]int, n)
		got = got[:PackInto(got, xs, opts, func(x int) bool { return x%3 == 0 })]
		prev := -1
		for _, v := range got {
			if v%3 != 0 || v <= prev {
				t.Fatalf("opts=%+v: bad pack output %v", opts, got[:min(10, len(got))])
			}
			prev = v
		}
		if len(got) != 334 {
			t.Fatalf("opts=%+v: pack count = %d", opts, len(got))
		}
	}
}

func TestPackIndex(t *testing.T) {
	got := make([]int, 100)
	got = got[:PackIndexInto(got, 100, Options{Procs: 4, Grain: 3}, func(i int) bool { return i%10 == 0 })]
	want := []int{0, 10, 20, 30, 40, 50, 60, 70, 80, 90}
	if len(got) != len(want) {
		t.Fatalf("PackIndexInto = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("PackIndexInto = %v", got)
		}
	}
}

func TestHistogram(t *testing.T) {
	for _, opts := range allOptions() {
		xs := make([]int, 10000)
		for i := range xs {
			xs[i] = i
		}
		h := make([]int, 10)
		HistogramInto(h, xs, opts, func(x int) int { return x % 10 })
		for b, c := range h {
			if c != 1000 {
				t.Fatalf("opts=%+v: bucket %d = %d, want 1000", opts, b, c)
			}
		}
	}
}

func TestMergeStable(t *testing.T) {
	type kv struct{ k, src int }
	a := []kv{{1, 0}, {3, 0}, {3, 0}, {5, 0}}
	b := []kv{{1, 1}, {2, 1}, {3, 1}, {6, 1}}
	dst := make([]kv, len(a)+len(b))
	Merge(dst, a, b, Options{Procs: 4, Grain: 1}, func(x, y kv) bool { return x.k < y.k })
	// Sorted by k, with src=0 before src=1 on equal keys.
	for i := 1; i < len(dst); i++ {
		if dst[i-1].k > dst[i].k {
			t.Fatalf("merge not sorted: %v", dst)
		}
		if dst[i-1].k == dst[i].k && dst[i-1].src > dst[i].src {
			t.Fatalf("merge not stable: %v", dst)
		}
	}
}

func TestMergeQuick(t *testing.T) {
	f := func(av, bv []uint16, procs uint8) bool {
		a := make([]int, len(av))
		for i, v := range av {
			a[i] = int(v)
		}
		b := make([]int, len(bv))
		for i, v := range bv {
			b[i] = int(v)
		}
		insertion(a)
		insertion(b)
		dst := make([]int, len(a)+len(b))
		opts := Options{Procs: int(procs%8) + 1, Grain: 1}
		Merge(dst, a, b, opts, func(x, y int) bool { return x < y })
		// Result must be sorted and a permutation of the inputs.
		counts := map[int]int{}
		for _, v := range a {
			counts[v]++
		}
		for _, v := range b {
			counts[v]++
		}
		for i, v := range dst {
			if i > 0 && dst[i-1] > v {
				return false
			}
			counts[v]--
		}
		for _, c := range counts {
			if c != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func insertion(xs []int) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j-1] > xs[j]; j-- {
			xs[j-1], xs[j] = xs[j], xs[j-1]
		}
	}
}

func TestPolicyString(t *testing.T) {
	names := map[Policy]string{Static: "static", Cyclic: "cyclic", Dynamic: "dynamic", Guided: "guided", Policy(99): "unknown"}
	for p, want := range names {
		if p.String() != want {
			t.Fatalf("Policy(%d).String() = %q", p, p.String())
		}
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
