package bsp

import (
	"testing"

	"repro/internal/gen"
	"repro/internal/seq"
)

// TestGatherCollective: every processor sends one word to the root,
// which must receive each sender's value once; the root's receive
// volume, P words, is the superstep's h.
func TestGatherCollective(t *testing.T) {
	for _, p := range []int{1, 2, 7, 16} {
		got := make([]int64, p)
		stats := RunOn(nil, p, func(c *Proc[tagged]) {
			id := c.ID()
			c.Send(0, tagged{from: id, val: int64(id * id)})
			for _, m := range c.Sync() {
				got[m.from] = m.val
			}
		})
		for i := 0; i < p; i++ {
			if got[i] != int64(i*i) {
				t.Fatalf("p=%d: gather[%d] = %d", p, i, got[i])
			}
		}
		if stats.Supersteps() != 1 {
			t.Fatalf("gather supersteps = %d", stats.Supersteps())
		}
		if h := stats.Trace[0].H; h != float64(p) {
			t.Fatalf("gather h = %v, want %d (root receives P)", h, p)
		}
	}
}

// TestAllToAllCollective: a total exchange delivers f(i, j) from i to
// j and charges h = P (each processor sends and receives P words).
func TestAllToAllCollective(t *testing.T) {
	const p = 5
	got := make([][]int64, p)
	stats := RunOn(nil, p, func(c *Proc[tagged]) {
		id := c.ID()
		for to := 0; to < p; to++ {
			c.Send(to, tagged{from: id, val: int64(id*100 + to)})
		}
		row := make([]int64, p)
		for _, m := range c.Sync() {
			row[m.from] = m.val
		}
		got[id] = row
	})
	for to := 0; to < p; to++ {
		for from := 0; from < p; from++ {
			if got[to][from] != int64(from*100+to) {
				t.Fatalf("alltoall[%d][%d] = %d", to, from, got[to][from])
			}
		}
	}
	if h := stats.Trace[0].H; h != p {
		t.Fatalf("alltoall h = %v, want %d", h, p)
	}
}

func TestMatmulRowBlockMatchesSequential(t *testing.T) {
	for _, n := range []int{4, 16, 33} {
		for _, p := range []int{1, 2, 4} {
			a := gen.RandomMatrix(n, n, uint64(n))
			b := gen.RandomMatrix(n, n, uint64(n)+1)
			got, stats := MatmulRowBlockOn(nil, a.Data, b.Data, n, p)
			want := seq.Matmul(a, b)
			for i := range want.Data {
				d := got[i] - want.Data[i]
				if d > 1e-9 || d < -1e-9 {
					t.Fatalf("n=%d p=%d: mismatch at %d", n, p, i)
				}
			}
			if stats.Supersteps() != p+1 {
				t.Fatalf("n=%d p=%d: supersteps = %d, want %d", n, p, stats.Supersteps(), p+1)
			}
		}
	}
}

func TestMatmulRowBlockHRelation(t *testing.T) {
	// Each panel broadcast sends (n/P)·n words to P-1 receivers: the
	// sender's outgoing volume (P-1)·n²/P dominates the h-relation.
	const n, p = 32, 4
	a := gen.RandomMatrix(n, n, 1)
	b := gen.RandomMatrix(n, n, 2)
	_, stats := MatmulRowBlockOn(nil, a.Data, b.Data, n, p)
	wantPerStep := float64((p - 1) * (n / p) * n)
	for s, st := range stats.Trace[:p] {
		if st.H != wantPerStep {
			t.Fatalf("superstep %d: h = %v, want %v", s, st.H, wantPerStep)
		}
	}
	if last := stats.Trace[p]; last.H != 0 {
		t.Fatalf("final barrier superstep has h = %v", last.H)
	}
	// Total compute across supersteps ≈ n³/P per processor.
	if w := stats.TotalW(); w != float64(n*n*n/p) {
		t.Fatalf("total W = %v, want %v", w, n*n*n/p)
	}
}

func TestSendWordsAccounting(t *testing.T) {
	stats := RunOn(nil, 2, func(c *Proc[int]) {
		if c.ID() == 0 {
			c.SendWords(1, 7, 100)
		}
		c.Sync()
	})
	if h := stats.Trace[0].H; h != 100 {
		t.Fatalf("weighted send h = %v, want 100", h)
	}
}
