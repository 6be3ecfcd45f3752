package exec

import (
	"sync"
	"sync/atomic"
	"testing"
)

func TestRunCoversAllSlots(t *testing.T) {
	e := New(4)
	defer e.Close()
	for _, p := range []int{1, 2, 3, 4, 7, 16, 100} {
		hits := make([]atomic.Int32, p)
		e.Run(p, func(w int) { hits[w].Add(1) })
		for w := range hits {
			if got := hits[w].Load(); got != 1 {
				t.Fatalf("p=%d: slot %d ran %d times, want 1", p, w, got)
			}
		}
	}
}

func TestRunZeroAndNegative(t *testing.T) {
	e := New(2)
	defer e.Close()
	ran := false
	e.Run(0, func(int) { ran = true })
	e.Run(-3, func(int) { ran = true })
	if ran {
		t.Fatal("slot ran for p <= 0")
	}
}

// TestRunMoreSlotsThanWorkers checks graceful degradation: a 1-worker
// pool must still complete a 64-slot Run via caller participation.
func TestRunMoreSlotsThanWorkers(t *testing.T) {
	e := New(1)
	defer e.Close()
	var n atomic.Int64
	e.Run(64, func(int) { n.Add(1) })
	if n.Load() != 64 {
		t.Fatalf("ran %d slots, want 64", n.Load())
	}
}

// TestNestedRun drives Run-inside-Run deep enough to saturate the pool
// many times over; caller participation must prevent deadlock.
func TestNestedRun(t *testing.T) {
	e := New(2)
	defer e.Close()
	var leaves atomic.Int64
	var rec func(depth int)
	rec = func(depth int) {
		if depth == 0 {
			leaves.Add(1)
			return
		}
		e.Run(4, func(int) { rec(depth - 1) })
	}
	rec(5) // 4^5 = 1024 leaves on a 2-worker pool
	if got := leaves.Load(); got != 1024 {
		t.Fatalf("leaves = %d, want 1024", got)
	}
}

// TestConcurrentRuns issues Runs from many goroutines at once, the
// long-lived-server traffic shape.
func TestConcurrentRuns(t *testing.T) {
	e := New(4)
	defer e.Close()
	var total atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < 50; r++ {
				e.Run(8, func(int) { total.Add(1) })
			}
		}()
	}
	wg.Wait()
	if want := int64(16 * 50 * 8); total.Load() != want {
		t.Fatalf("total = %d, want %d", total.Load(), want)
	}
}

func TestSubmitExecutes(t *testing.T) {
	e := New(2)
	defer e.Close()
	var wg sync.WaitGroup
	var n atomic.Int64
	for i := 0; i < 100; i++ {
		wg.Add(1)
		e.Submit(func() {
			n.Add(1)
			wg.Done()
		})
	}
	wg.Wait()
	if n.Load() != 100 {
		t.Fatalf("ran %d tasks, want 100", n.Load())
	}
}

func TestGoTracksBlocking(t *testing.T) {
	e := New(1)
	defer e.Close()
	release := make(chan struct{})
	started := make(chan struct{})
	e.Go(func() {
		close(started)
		<-release
	})
	<-started
	if e.BlockingGoroutines() != 1 {
		t.Fatalf("blocking = %d, want 1", e.BlockingGoroutines())
	}
	close(release)
	for e.BlockingGoroutines() != 0 {
	}
}

func TestCloseStopsWorkers(t *testing.T) {
	e := New(4)
	var n atomic.Int64
	e.Run(16, func(int) { n.Add(1) })
	e.Close() // must return: workers observe closed and exit
	if n.Load() != 16 {
		t.Fatalf("ran %d slots, want 16", n.Load())
	}
}

func TestDefaultIsSingleton(t *testing.T) {
	if Default() != Default() {
		t.Fatal("Default returned distinct executors")
	}
	if Default().Procs() < 1 {
		t.Fatal("Default has no workers")
	}
}

func TestDequeOrder(t *testing.T) {
	var d Deque[int]
	d.PushBottom(1)
	d.PushBottom(2)
	d.PushBottom(3)
	if v, ok := d.StealTop(); !ok || v != 1 {
		t.Fatalf("StealTop = %d,%v; want 1", v, ok)
	}
	if v, ok := d.PopBottom(); !ok || v != 3 {
		t.Fatalf("PopBottom = %d,%v; want 3", v, ok)
	}
	if v, ok := d.PopBottom(); !ok || v != 2 {
		t.Fatalf("PopBottom = %d,%v; want 2", v, ok)
	}
	if _, ok := d.PopBottom(); ok {
		t.Fatal("deque should be empty")
	}
	if _, ok := d.StealTop(); ok {
		t.Fatal("deque should be empty")
	}
}
