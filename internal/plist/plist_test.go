package plist

import (
	"testing"
	"testing/quick"

	"repro/internal/gen"
	"repro/internal/par"
	"repro/internal/seq"
)

func TestRankMatchesReference(t *testing.T) {
	for _, n := range []int{1, 2, 3, 10, 100, 1000, 4097} {
		for _, p := range []int{1, 2, 4, 8} {
			l := gen.RandomList(n, uint64(n))
			got := Rank(l, par.Options{Procs: p, Grain: 8})
			want := l.RanksRef()
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("n=%d p=%d: rank[%d] = %d, want %d", n, p, i, got[i], want[i])
				}
			}
		}
	}
}

func TestRankOrderedList(t *testing.T) {
	l := gen.OrderedList(100)
	got := Rank(l, par.Options{Procs: 4, Grain: 4})
	for i, r := range got {
		if r != i {
			t.Fatalf("ordered list rank[%d] = %d", i, r)
		}
	}
}

func TestRankEmptyAndSingle(t *testing.T) {
	if out := Rank(&gen.List{}, par.Options{}); out != nil {
		t.Fatalf("empty list ranks = %v", out)
	}
	l := gen.OrderedList(1)
	got := Rank(l, par.Options{})
	if len(got) != 1 || got[0] != 0 {
		t.Fatalf("singleton ranks = %v", got)
	}
}

func TestRankAgreesWithSequentialQuick(t *testing.T) {
	f := func(seed uint64, size uint16, procs uint8) bool {
		n := int(size%2000) + 1
		l := gen.RandomList(n, seed)
		got := Rank(l, par.Options{Procs: int(procs%8) + 1, Grain: 16})
		want := seq.ListRank(l)
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestRankIsPermutationOfRange(t *testing.T) {
	n := 500
	l := gen.RandomList(n, 3)
	got := Rank(l, par.Options{Procs: 4})
	seen := make([]bool, n)
	for _, r := range got {
		if r < 0 || r >= n || seen[r] {
			t.Fatalf("ranks are not a permutation: %d", r)
		}
		seen[r] = true
	}
}

func TestListGenerators(t *testing.T) {
	l := gen.RandomList(100, 42)
	if l.Len() != 100 {
		t.Fatalf("Len = %d", l.Len())
	}
	tail := l.Tail()
	if tail < 0 || l.Next[tail] != tail {
		t.Fatalf("bad tail %d", tail)
	}
	// The list must visit all nodes exactly once.
	seen := make([]bool, 100)
	v := l.Head
	for steps := 0; steps < 100; steps++ {
		if seen[v] {
			t.Fatal("list revisits a node")
		}
		seen[v] = true
		if l.Next[v] == v {
			break
		}
		v = l.Next[v]
	}
	for i, s := range seen {
		if !s {
			t.Fatalf("node %d unreachable", i)
		}
	}
}
