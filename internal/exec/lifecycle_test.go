package exec

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/racecheck"
	"repro/internal/scratch"
)

// Submit after Close must fail loudly: the workers have exited, so the
// task would be lost forever while the pending gauge corrupts.
func TestSubmitAfterClosePanics(t *testing.T) {
	e := New(2)
	e.Run(4, func(int) {}) // start the workers
	e.Close()
	defer func() {
		if recover() == nil {
			t.Fatalf("Submit after Close did not panic")
		}
	}()
	e.Submit(func() {})
}

func TestRunAfterClosePanics(t *testing.T) {
	e := New(2)
	e.Run(4, func(int) {})
	e.Close()
	defer func() {
		if recover() == nil {
			t.Fatalf("Run after Close did not panic")
		}
	}()
	e.Run(4, func(int) {})
}

// Steady steal/push traffic must not grow the heap: StealTop used to
// advance the slice head (d.items = d.items[1:]), permanently
// discarding the capacity in front of it so every subsequent push
// reallocated.
func TestDequeSteadyStateAllocs(t *testing.T) {
	if racecheck.Enabled {
		t.Skip("race instrumentation allocates")
	}
	var d Deque[int]
	cycle := func() {
		for i := 0; i < 256; i++ {
			d.PushBottom(i)
		}
		for {
			if _, ok := d.StealTop(); !ok {
				break
			}
		}
	}
	cycle() // warm: grow the backing array once
	if n := testing.AllocsPerRun(100, cycle); n > 0 {
		t.Errorf("steady steal/push traffic allocates %.1f times per 256-task cycle, want 0", n)
	}
}

// Mixed owner/thief traffic with interleaved pops exercises the
// compaction path.
func TestDequeCompaction(t *testing.T) {
	var d Deque[int]
	next := 0
	for round := 0; round < 50; round++ {
		for i := 0; i < 100; i++ {
			d.PushBottom(next)
			next++
		}
		for i := 0; i < 60; i++ {
			if _, ok := d.StealTop(); !ok {
				t.Fatalf("round %d: deque empty during steals", round)
			}
		}
		for i := 0; i < 40; i++ {
			if _, ok := d.PopBottom(); !ok {
				t.Fatalf("round %d: deque empty during pops", round)
			}
		}
		if got := len(d.items) - d.head; got != 0 {
			t.Fatalf("round %d: %d live items, want 0", round, got)
		}
	}
}

func TestDequeStealOrderSurvivesCompaction(t *testing.T) {
	var d Deque[int]
	for i := 0; i < 500; i++ {
		d.PushBottom(i)
	}
	for i := 0; i < 500; i++ {
		v, ok := d.StealTop()
		if !ok || v != i {
			t.Fatalf("steal %d: got %d/%v, want %d/true", i, v, ok, i)
		}
	}
}

// The pooled fork/join state must never leak across Runs: hammer
// nested, concurrent Runs (so helpers frequently arrive late and
// reclamation falls to stragglers) and check every slot executes
// exactly once. Run with -race this also proves recycling is sound.
func TestRunStateRecyclingStress(t *testing.T) {
	e := New(4)
	defer e.Close()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for iter := 0; iter < 300; iter++ {
				var outer atomic.Int64
				e.Run(5, func(w int) {
					var inner atomic.Int64
					e.Run(3, func(int) { inner.Add(1) })
					if inner.Load() != 3 {
						t.Errorf("inner run: %d slots, want 3", inner.Load())
					}
					outer.Add(1)
				})
				if outer.Load() != 5 {
					t.Errorf("outer run: %d slots, want 5", outer.Load())
				}
			}
		}()
	}
	wg.Wait()
}

// RunArena hands every participant its own arena; buffers made in one
// slot must not alias buffers concurrently live in another.
func TestRunArena(t *testing.T) {
	e := New(4)
	defer e.Close()
	sp := scratch.New()
	var bad atomic.Int64
	for iter := 0; iter < 50; iter++ {
		e.RunArena(8, sp, func(w int, a *scratch.Arena) {
			buf := scratch.Make[int64](a, 1024)
			for i := range buf {
				buf[i] = int64(w)
			}
			for _, v := range buf {
				if v != int64(w) {
					bad.Add(1)
					return
				}
			}
		})
	}
	if bad.Load() != 0 {
		t.Fatalf("%d slots observed another slot's writes in their arena buffer", bad.Load())
	}
	if st := sp.Stats(); st.BytesLive != 0 {
		t.Errorf("BytesLive = %d after all arenas released, want 0", st.BytesLive)
	}
}

func TestRunArenaSingleSlot(t *testing.T) {
	e := New(2)
	defer e.Close()
	ran := false
	e.RunArena(1, nil, func(w int, a *scratch.Arena) {
		if a == nil {
			t.Error("nil arena")
		}
		ran = w == 0
	})
	if !ran {
		t.Fatalf("slot 0 did not run")
	}
}

// Invalid REPRO_EXEC_PROCS values must be rejected (falling back to
// GOMAXPROCS) rather than silently half-parsed.
func TestProcsFromEnv(t *testing.T) {
	cases := []struct {
		val  string
		want int
	}{
		{"", 0}, {"4", 4}, {"1", 1},
		{"0", 0}, {"-3", 0}, {"8x", 0}, {"eight", 0}, {" 8", 0},
	}
	for _, c := range cases {
		t.Setenv("REPRO_EXEC_PROCS", c.val)
		if got := procsFromEnv(); got != c.want {
			t.Errorf("REPRO_EXEC_PROCS=%q: got %d, want %d", c.val, got, c.want)
		}
	}
}

// Steady-state Run must not allocate: the runState is pooled and the
// helper task is a prebuilt method value. (The caller's slot closure
// is the caller's own; here it captures nothing.) A Run's state is
// recycled only once its last straggling helper has run, which may be
// shortly *after* Run returns — so between measured runs the test
// waits for the state to reach the free list, making reuse (and the
// zero-allocation assertion) deterministic.
func TestRunSteadyStateAllocs(t *testing.T) {
	if racecheck.Enabled {
		t.Skip("race instrumentation allocates")
	}
	e := New(4)
	defer e.Close()
	sink := make([]int64, 4*64) // padded per-slot accumulators
	body := func(w int) {
		for i := 0; i < 2000; i++ {
			sink[w*64]++
		}
	}
	waitRecycled := func() {
		for {
			e.freeMu.Lock()
			ok := e.freeRun != nil
			e.freeMu.Unlock()
			if ok {
				return
			}
			runtime.Gosched()
		}
	}
	e.Run(4, body)
	waitRecycled()
	if n := testing.AllocsPerRun(100, func() {
		e.Run(4, body)
		waitRecycled()
	}); n > 0 {
		t.Errorf("steady-state Run allocates %.2f times/run, want 0", n)
	}
}
