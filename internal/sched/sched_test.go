package sched

import (
	"sync/atomic"
	"testing"

	"repro/internal/exec"
)

func TestRunSingleTask(t *testing.T) {
	p := NewPoolOn(nil, 4)
	var ran atomic.Bool
	p.Run(func(w *Worker) { ran.Store(true) })
	if !ran.Load() {
		t.Fatal("root task did not run")
	}
}

func TestSpawnTreeCompletes(t *testing.T) {
	for _, procs := range []int{1, 2, 4, 8} {
		p := NewPoolOn(nil, procs)
		var count atomic.Int64
		var spawn func(depth int) Task
		spawn = func(depth int) Task {
			return func(w *Worker) {
				count.Add(1)
				if depth > 0 {
					w.Spawn(spawn(depth - 1))
					w.Spawn(spawn(depth - 1))
				}
			}
		}
		p.Run(spawn(10))
		want := int64(1<<11 - 1) // full binary tree of depth 10
		if got := count.Load(); got != want {
			t.Fatalf("procs=%d: executed %d tasks, want %d", procs, got, want)
		}
	}
}

func TestTreeSum(t *testing.T) {
	// Recursive range sum with continuation-free accumulation.
	const n = 100000
	p := NewPoolOn(nil, 4)
	var total atomic.Int64
	var sum func(lo, hi int) Task
	sum = func(lo, hi int) Task {
		return func(w *Worker) {
			if hi-lo <= 1000 {
				s := int64(0)
				for i := lo; i < hi; i++ {
					s += int64(i)
				}
				total.Add(s)
				return
			}
			mid := (lo + hi) / 2
			w.Spawn(sum(lo, mid))
			w.Spawn(sum(mid, hi))
		}
	}
	p.Run(sum(0, n))
	want := int64(n) * (n - 1) / 2
	if got := total.Load(); got != want {
		t.Fatalf("tree sum = %d, want %d", got, want)
	}
}

func TestRepeatedRuns(t *testing.T) {
	p := NewPoolOn(nil, 3)
	for round := 0; round < 10; round++ {
		var c atomic.Int32
		p.Run(func(w *Worker) {
			for i := 0; i < 5; i++ {
				w.Spawn(func(w *Worker) { c.Add(1) })
			}
		})
		if c.Load() != 5 {
			t.Fatalf("round %d: ran %d of 5 children", round, c.Load())
		}
	}
}

func TestWorkerIDsDistinct(t *testing.T) {
	p := NewPoolOn(nil, 4)
	seen := make([]atomic.Int32, 4)
	p.Run(func(w *Worker) {
		for i := 0; i < 1000; i++ {
			w.Spawn(func(w *Worker) {
				if w.id < 0 || w.id >= 4 {
					t.Errorf("worker id %d out of range", w.id)
					return
				}
				seen[w.id].Add(1)
			})
		}
	})
	var total int32
	for i := range seen {
		total += seen[i].Load()
	}
	if total != 1000 {
		t.Fatalf("ran %d of 1000 tasks", total)
	}
}

func TestStealStatsReset(t *testing.T) {
	p := NewPoolOn(nil, 2)
	p.Run(func(w *Worker) {
		for i := 0; i < 100; i++ {
			w.Spawn(func(w *Worker) {})
		}
	})
	first := p.StealAttempts()
	p.Run(func(w *Worker) {})
	if p.StealAttempts() > first && first > 0 {
		// attempts reset each round; after a trivial round the counter
		// must not carry over the previous round's larger value.
		t.Fatalf("steal attempts not reset: %d then %d", first, p.StealAttempts())
	}
}

func TestNewPoolClampsProcs(t *testing.T) {
	if NewPoolOn(nil, 0).Procs() != 1 || NewPoolOn(nil, -3).Procs() != 1 {
		t.Fatal("non-positive procs not clamped to 1")
	}
}

func TestDequeLIFOBottomFIFOTop(t *testing.T) {
	// The deque implementation is unified in internal/exec; this checks
	// the owner-LIFO / thief-FIFO contract sched relies on, through the
	// same instantiation sched uses.
	var d exec.Deque[Task]
	order := []int{}
	mk := func(i int) Task { return func(w *Worker) { order = append(order, i) } }
	d.PushBottom(mk(1))
	d.PushBottom(mk(2))
	d.PushBottom(mk(3))
	if t1, ok := d.StealTop(); !ok {
		t.Fatal("StealTop failed")
	} else {
		t1(nil)
	}
	if t3, ok := d.PopBottom(); !ok {
		t.Fatal("PopBottom failed")
	} else {
		t3(nil)
	}
	if t2, ok := d.PopBottom(); !ok {
		t.Fatal("PopBottom failed")
	} else {
		t2(nil)
	}
	if _, ok := d.PopBottom(); ok {
		t.Fatal("deque should be empty")
	}
	if _, ok := d.StealTop(); ok {
		t.Fatal("deque should be empty")
	}
	want := []int{1, 3, 2}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}
