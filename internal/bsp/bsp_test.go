package bsp

import (
	"sort"
	"testing"

	"repro/internal/gen"
	"repro/internal/machine"
)

func TestRunBasicBarrier(t *testing.T) {
	// Every processor increments a private slot each superstep; after k
	// supersteps all slots must be k (barrier keeps procs in lockstep).
	const p, k = 8, 5
	counts := make([]int, p)
	RunOn(nil, p, func(c *Proc[int]) {
		for step := 0; step < k; step++ {
			counts[c.ID()]++
			c.Sync()
		}
	})
	for i, v := range counts {
		if v != k {
			t.Fatalf("proc %d ran %d supersteps, want %d", i, v, k)
		}
	}
}

func TestMessageDelivery(t *testing.T) {
	// Ring: each proc sends its id to the next; everyone must receive
	// exactly the predecessor's id.
	const p = 6
	got := make([]int, p)
	RunOn(nil, p, func(c *Proc[int]) {
		next := (c.ID() + 1) % c.NProcs()
		c.Send(next, c.ID())
		inbox := c.Sync()
		if len(inbox) != 1 {
			t.Errorf("proc %d received %d messages", c.ID(), len(inbox))
			return
		}
		got[c.ID()] = inbox[0]
	})
	for i := 0; i < p; i++ {
		want := (i - 1 + p) % p
		if got[i] != want {
			t.Fatalf("proc %d received %d, want %d", i, got[i], want)
		}
	}
}

func TestMessagesNotDeliveredEarly(t *testing.T) {
	// A message sent in superstep 1 must not be visible until after the
	// first Sync, and must not persist past the following Sync.
	RunOn(nil, 2, func(c *Proc[int]) {
		if c.ID() == 0 {
			c.Send(1, 42)
		}
		first := c.Sync()
		second := c.Sync()
		if c.ID() == 1 {
			if len(first) != 1 || first[0] != 42 {
				t.Errorf("superstep 2 inbox = %v", first)
			}
			if len(second) != 0 {
				t.Errorf("stale messages redelivered: %v", second)
			}
		}
	})
}

func TestTraceRecordsWorkAndH(t *testing.T) {
	stats := RunOn(nil, 4, func(c *Proc[int]) {
		c.Charge(100 * (c.ID() + 1)) // max 400
		if c.ID() == 0 {
			for to := 1; to < 4; to++ {
				c.Send(to, 7)
			}
		}
		c.Sync()
	})
	if stats.Supersteps() != 1 {
		t.Fatalf("supersteps = %d", stats.Supersteps())
	}
	s := stats.Trace[0]
	if s.W != 400 {
		t.Fatalf("W = %v, want 400 (max over procs)", s.W)
	}
	if s.H != 3 {
		t.Fatalf("H = %v, want 3 (root sends 3 words)", s.H)
	}
}

func TestEarlyExitDoesNotDeadlock(t *testing.T) {
	// Proc 1 exits immediately; procs 0 and 2 still complete a superstep.
	done := make([]bool, 3)
	RunOn(nil, 3, func(c *Proc[int]) {
		if c.ID() == 1 {
			done[1] = true
			return
		}
		c.Sync()
		done[c.ID()] = true
	})
	for i, d := range done {
		if !d {
			t.Fatalf("proc %d did not finish", i)
		}
	}
}

func TestScanMatchesSequential(t *testing.T) {
	for _, p := range []int{1, 2, 3, 8, 16} {
		for _, n := range []int{0, 1, 5, 100, 1000} {
			xs := gen.Ints(n, gen.Uniform, 42)
			for i := range xs {
				xs[i] %= 1000 // avoid overflow noise in the test oracle
			}
			got, stats := Scan(xs, p)
			var acc int64
			for i, x := range xs {
				acc += x
				if got[i] != acc {
					t.Fatalf("p=%d n=%d: scan[%d] = %d, want %d", p, n, i, got[i], acc)
				}
			}
			if stats.Supersteps() != 2 {
				t.Fatalf("p=%d: scan used %d supersteps, want 2", p, stats.Supersteps())
			}
		}
	}
}

func TestScanHRelation(t *testing.T) {
	_, stats := Scan(gen.Ints(1000, gen.Uniform, 1), 8)
	// Superstep 1 is an all-to-all of partials: every proc sends and
	// receives P words, so h = 8.
	if h := stats.Trace[0].H; h != 8 {
		t.Fatalf("scan superstep-1 h = %v, want 8", h)
	}
}

func TestSumAllReduce(t *testing.T) {
	xs := gen.Ints(5000, gen.Uniform, 9)
	var want int64
	for i := range xs {
		xs[i] %= 1 << 20
		want += xs[i]
	}
	got, stats := SumAllReduce(xs, 7)
	if got != want {
		t.Fatalf("sum = %d, want %d", got, want)
	}
	if stats.Supersteps() != 3 {
		t.Fatalf("supersteps = %d", stats.Supersteps())
	}
}

func TestBroadcasts(t *testing.T) {
	for _, p := range []int{1, 2, 5, 8, 16} {
		direct, ds := BroadcastDirect(99, p)
		tree, ts := BroadcastTree(99, p)
		for i := 0; i < p; i++ {
			if direct[i] != 99 {
				t.Fatalf("direct p=%d: proc %d missing value", p, i)
			}
			if tree[i] != 99 {
				t.Fatalf("tree p=%d: proc %d missing value", p, i)
			}
		}
		if p > 2 {
			// Tree trades more supersteps (latency) for lower h (gap).
			if ts.Supersteps() <= ds.Supersteps() {
				t.Fatalf("p=%d: tree supersteps %d <= direct %d", p, ts.Supersteps(), ds.Supersteps())
			}
			if maxH(ts) >= maxH(ds) {
				t.Fatalf("p=%d: tree max h %v >= direct %v", p, maxH(ts), maxH(ds))
			}
		}
	}
}

func maxH(s *Stats) float64 {
	m := 0.0
	for _, st := range s.Trace {
		if st.H > m {
			m = st.H
		}
	}
	return m
}

func TestSampleSortSorts(t *testing.T) {
	for _, p := range []int{1, 2, 4, 8} {
		for _, d := range []gen.Distribution{gen.Uniform, gen.Sorted, gen.Zipf, gen.FewUnique} {
			xs := gen.Ints(2000, d, 77)
			buckets, _ := SampleSort(xs, p)
			var got []int64
			for rank := 0; rank < p; rank++ {
				// Bucket boundaries must respect rank order.
				if rank > 0 && len(buckets[rank]) > 0 && len(buckets[rank-1]) > 0 {
					if buckets[rank-1][len(buckets[rank-1])-1] > buckets[rank][0] {
						t.Fatalf("p=%d %v: bucket %d overlaps %d", p, d, rank-1, rank)
					}
				}
				got = append(got, buckets[rank]...)
			}
			want := append([]int64(nil), xs...)
			sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
			if len(got) != len(want) {
				t.Fatalf("p=%d %v: lost elements: %d of %d", p, d, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("p=%d %v: mismatch at %d", p, d, i)
				}
			}
		}
	}
}

func TestCostEvaluation(t *testing.T) {
	_, stats := Scan(gen.Ints(10000, gen.Uniform, 3), 8)
	cheap := machine.BSPParams{P: 8, G: 1, L: 10}
	pricey := machine.BSPParams{P: 8, G: 100, L: 100000}
	if stats.Cost(cheap) >= stats.Cost(pricey) {
		t.Fatal("cost must increase with g and l")
	}
	if stats.TotalW() <= 0 || stats.TotalH() <= 0 {
		t.Fatal("trace totals must be positive")
	}
}

func TestScanCostScalesDownWithP(t *testing.T) {
	// The whole point of the simulated machine: per-superstep max work
	// drops as P grows (until communication dominates).
	xs := gen.Ints(1<<14, gen.Uniform, 5)
	_, s2 := Scan(xs, 2)
	_, s16 := Scan(xs, 16)
	if s16.TotalW() >= s2.TotalW() {
		t.Fatalf("W(16 procs) = %v should be < W(2 procs) = %v", s16.TotalW(), s2.TotalW())
	}
}
