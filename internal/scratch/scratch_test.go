package scratch

import (
	"repro/internal/racecheck"
	"sync"
	"testing"
	"unsafe"
)

func TestGetPutReuse(t *testing.T) {
	p := New()
	a, h := Get[int64](p, 100)
	if len(a) != 100 {
		t.Fatalf("len = %d, want 100", len(a))
	}
	for i := range a {
		a[i] = int64(i)
	}
	base := &a[0]
	Put(h)
	b, h2 := Get[int64](p, 100)
	if &b[0] != base {
		t.Errorf("second Get did not reuse the slab")
	}
	st := p.Stats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Errorf("stats hits=%d misses=%d, want 1/1", st.Hits, st.Misses)
	}
	Put(h2)
}

func TestSizeClassSharing(t *testing.T) {
	// A smaller request of a different type reuses the same class slab.
	p := New()
	a, h := Get[int64](p, 64) // 512 B class
	base := &a[0]
	Put(h)
	b, h2 := Get[int32](p, 100) // 400 B -> same 512 B class
	if len(b) == 0 || unsafe.Pointer(&b[0]) != unsafe.Pointer(base) {
		t.Errorf("class not shared across element types")
	}
	Put(h2)
}

// TestDoublePutPanics also checks that the panic leaves the pool
// usable: it is raised before Put takes the pool's lock.
func TestDoublePutPanics(t *testing.T) {
	p := New()
	_, h := Get[int](p, 10)
	Put(h)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatalf("double Put did not panic")
			}
		}()
		Put(h)
	}()
	if !p.mu.TryLock() {
		t.Fatalf("double Put panicked with the pool's lock held")
	}
	p.mu.Unlock()
	_, h = Get[int](p, 10)
	Put(h)
	if st := p.Stats(); st.Hits != 1 || st.BytesLive != 0 {
		t.Errorf("after the panic: hits=%d live=%d, want 1/0", st.Hits, st.BytesLive)
	}
}

// getAtDepth makes depth nested calls, each frame carrying about 256 B,
// and Gets a 1 Ki []int64 at the bottom, so the Get runs at a stack
// address depth frames below its caller's.
//
//go:noinline
func getAtDepth(p *Pool, depth int) (Handle, int64) {
	var pad [32]int64
	pad[depth%len(pad)] = int64(depth)
	if depth == 0 {
		_, h := Get[int64](p, 1024)
		return h, pad[0]
	}
	h, sum := getAtDepth(p, depth-1)
	return h, sum + pad[(depth+1)%len(pad)]
}

// TestReuseAcrossCallDepth pins that a buffer Put back at one call
// depth is reused by a Get at another: reuse must not depend on where
// on the goroutine's stack the two calls run.
func TestReuseAcrossCallDepth(t *testing.T) {
	p := New()
	// Grow the stack past the deepest case first, so it does not move
	// while the pairs below run.
	h, _ := getAtDepth(p, 500)
	Put(h)
	for depth := 0; depth <= 400; depth += 50 {
		before := p.Stats().Misses
		for i := 0; i < 50; i++ {
			h, _ := getAtDepth(p, depth)
			Put(h)
		}
		if m := p.Stats().Misses - before; m != 0 {
			t.Errorf("Get %d frames below its Put: %d of 50 Gets missed, want 0", depth, m)
		}
	}
}

func TestPointerTypesBypass(t *testing.T) {
	p := New()
	s, h := Get[[]int](p, 5) // slice elements hold pointers
	if h.Pooled() {
		t.Fatalf("pointer-bearing element type must bypass the pool")
	}
	if len(s) != 5 {
		t.Fatalf("bypass len = %d, want 5", len(s))
	}
	type pair struct{ a, b int }
	_, h2 := Get[pair](p, 5) // structs stay on the ordinary heap too
	if h2.Pooled() {
		t.Fatalf("struct element type must bypass the pool")
	}
	Put(h)  // no-ops
	Put(h2) // no-ops
	if st := p.Stats(); st.Bypasses != 2 {
		t.Errorf("bypasses = %d, want 2", st.Bypasses)
	}
}

func TestOversizeBypasses(t *testing.T) {
	p := New()
	_, h := Get[int64](p, maxClassBytes/8+1)
	if h.Pooled() {
		t.Fatalf("oversize request must bypass")
	}
}

func TestOffPoolBypasses(t *testing.T) {
	buf, h := Get[int64](Off, 100)
	if h.Pooled() || len(buf) != 100 {
		t.Fatalf("Off pool must bypass")
	}
	Put(h)
}

func TestGetZeroed(t *testing.T) {
	p := New()
	a, h := Get[int64](p, 50)
	for i := range a {
		a[i] = -1
	}
	Put(h)
	b, h2 := GetZeroed[int64](p, 50)
	for i, v := range b {
		if v != 0 {
			t.Fatalf("b[%d] = %d after GetZeroed", i, v)
		}
	}
	Put(h2)
}

func TestGetCapAppend(t *testing.T) {
	p := New()
	buf, h := GetCap[int32](p, 0, 1000)
	if cap(buf) < 1000 {
		t.Fatalf("cap = %d, want >= 1000", cap(buf))
	}
	for i := 0; i < 1000; i++ {
		buf = append(buf, int32(i)) // must never reallocate
	}
	Put(h)
	st := p.Stats()
	if st.Misses != 1 {
		t.Errorf("append grew past the slab: misses = %d", st.Misses)
	}
}

func TestArenaRelease(t *testing.T) {
	p := New()
	a := AcquireArena(p)
	x := Make[int64](a, 100)
	y := MakeZeroed[int](a, 200)
	_ = MakeCap[int32](a, 0, 50)
	if len(x) != 100 || len(y) != 200 {
		t.Fatalf("bad lengths")
	}
	a.Release()
	if st := p.Stats(); st.BytesLive != 0 {
		t.Errorf("BytesLive = %d after Release, want 0", st.BytesLive)
	}
	// The arena itself is recycled.
	b := AcquireArena(p)
	if b != a {
		t.Errorf("arena not recycled")
	}
	b.Release()
}

func TestArenaDoubleReleasePanics(t *testing.T) {
	p := New()
	a := AcquireArena(p)
	_ = Make[int](a, 8)
	a.Release()
	defer func() {
		if recover() == nil {
			t.Fatalf("double Release did not panic")
		}
	}()
	a.Release()
}

func TestArenaMakeAfterReleasePanics(t *testing.T) {
	p := New()
	a := AcquireArena(p)
	a.Release()
	defer func() {
		if recover() == nil {
			t.Fatalf("Make after Release did not panic")
		}
	}()
	_ = Make[int](a, 8)
}

// TestBytesGauges pins BytesLive and BytesPooled through a miss, a
// hit, a second class and a Put that drops at arenaCap, the per-class
// bound every class shares.
func TestBytesGauges(t *testing.T) {
	p := New()
	check := func(when string, live, pooled int64) {
		t.Helper()
		if st := p.Stats(); st.BytesLive != live || st.BytesPooled != pooled {
			t.Errorf("%s: live=%d pooled=%d, want %d/%d", when, st.BytesLive, st.BytesPooled, live, pooled)
		}
	}
	const small, large = 8192, 1 << 20
	_, h := Get[int64](p, 1024) // 8 KiB class, a miss
	check("after Get", small, 0)
	Put(h)
	check("after Put", 0, small)
	_, h = Get[int64](p, 1024) // the parked slab, a hit
	check("after a hit", small, 0)
	Put(h)

	_, h = Get[byte](p, large) // a 1 MiB class, a miss
	check("after a large Get", large, small)
	Put(h)
	check("after a large Put", 0, small+large)

	// arenaCap slabs of one class fit its free list; the next Put
	// drops its slab for the GC.
	hs := make([]Handle, arenaCap+1)
	for i := range hs {
		_, hs[i] = Get[int64](p, 1024)
	}
	check("with arenaCap+1 on loan", (arenaCap+1)*small, large)
	for _, h := range hs {
		Put(h)
	}
	check("after a Put past arenaCap", 0, arenaCap*small+large)
	if st := p.Stats(); st.Hits != 2 || st.Misses != arenaCap+2 {
		t.Errorf("hits=%d misses=%d, want 2/%d", st.Hits, st.Misses, arenaCap+2)
	}
}

func TestConcurrentTraffic(t *testing.T) {
	p := New()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				a := AcquireArena(p)
				x := Make[int64](a, 64+i%1000)
				for j := range x {
					x[j] = int64(g)
				}
				for _, v := range x {
					if v != int64(g) {
						t.Errorf("cross-goroutine scribble: got %d want %d", v, g)
						break
					}
				}
				a.Release()
				if i%50 == 0 {
					p.Stats() // reads the free lists while others park and take
				}
			}
		}(g)
	}
	wg.Wait()
	if st := p.Stats(); st.BytesLive != 0 {
		t.Errorf("BytesLive = %d after quiesce", st.BytesLive)
	}
}

func TestSteadyStateAllocFree(t *testing.T) {
	if racecheck.Enabled {
		t.Skip("race instrumentation allocates")
	}
	p := New()
	warm := func() {
		a := AcquireArena(p)
		_ = Make[int64](a, 4096)
		_ = MakeZeroed[int](a, 256)
		a.Release()
	}
	warm()
	if n := testing.AllocsPerRun(100, warm); n > 0 {
		t.Errorf("steady-state arena cycle allocates %.1f times/run, want 0", n)
	}
}

func TestClassFor(t *testing.T) {
	cases := []struct{ b, class int }{
		{1, 0}, {64, 0}, {65, 1}, {128, 1}, {129, 2},
		{1 << 20, 14}, {maxClassBytes, numClasses - 1},
	}
	for _, c := range cases {
		if got := classFor(c.b); got != c.class {
			t.Errorf("classFor(%d) = %d, want %d", c.b, got, c.class)
		}
	}
}

// BenchmarkArenaParallel is one arena cycle — acquire, Make a 1 Ki
// []int64 and a 16-element []int, release — on a private pool from
// every P at once. Run it at -cpu 1,2.
func BenchmarkArenaParallel(b *testing.B) {
	p := New()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			a := AcquireArena(p)
			_ = Make[int64](a, 1024)
			_ = Make[int](a, 16)
			a.Release()
		}
	})
}

// BenchmarkGetPutParallel is one Get+Put of a 1 Ki []int64 on a
// private pool from every P at once. Run it at -cpu 1,2: a pool whose
// counters share one cache line reads slower with the second core.
func BenchmarkGetPutParallel(b *testing.B) {
	p := New()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			_, h := Get[int64](p, 1024)
			Put(h)
		}
	})
}
