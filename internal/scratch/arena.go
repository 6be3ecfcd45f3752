package scratch

// Arena is a bulk-release view of a Pool: every Make draws a buffer
// whose lifetime ends at Release, so a kernel acquires one arena, makes
// as many temporaries as its phases need, and releases them all with a
// single deferred call. Arenas are the unit of worker locality — the
// executor hands a fresh one to each Run participant (exec.RunArena /
// par.ForWorkersArena), and kernels acquire one per call for their
// caller-side temporaries.
//
// An Arena is owned by exactly one goroutine between Acquire and
// Release; it is not safe for concurrent use. Buffers obtained from an
// arena must not be used after Release — the slabs' generation stamps
// advance at Release, so a retained Handle from Get-style use panics,
// and reused memory is the failure mode the stamps exist to catch.
type Arena struct {
	pool     *Pool
	out      []Handle
	released bool
}

// AcquireArena takes a reusable arena bound to p (nil means Default).
// Pair with Release; arenas themselves are pooled, so acquisition is
// allocation-free at steady state.
func AcquireArena(p *Pool) *Arena {
	if p == nil {
		p = Default()
	}
	p.mu.Lock()
	if n := len(p.arenas); n > 0 {
		a := p.arenas[n-1]
		p.arenas = p.arenas[:n-1]
		p.mu.Unlock()
		a.released = false
		return a
	}
	p.mu.Unlock()
	return &Arena{pool: p}
}

// arenaCap bounds parked arenas per pool, and parked slabs per class.
const arenaCap = 64

// Release returns every outstanding buffer to the pool and parks the
// arena for reuse. The arena must not be used afterwards: a second
// Release (or a Make after Release) panics — best-effort, like the
// slab generation stamps, so a double-parked arena never hands the
// same buffers to two owners silently.
func (a *Arena) Release() {
	if a.released {
		panic("scratch: Arena released twice")
	}
	a.released = true
	for _, h := range a.out {
		h.retire()
	}
	p := a.pool
	p.mu.Lock()
	for i, h := range a.out {
		p.park(h.s)
		a.out[i] = Handle{}
	}
	a.out = a.out[:0]
	if len(p.arenas) < arenaCap {
		p.arenas = append(p.arenas, a)
	}
	p.mu.Unlock()
}

// Make returns a []T of length n owned by the arena until Release.
// Contents are unspecified (see MakeZeroed).
func Make[T any](a *Arena, n int) []T {
	a.checkLive()
	buf, h := Get[T](a.pool, n)
	if h.Pooled() {
		a.out = append(a.out, h)
	}
	return buf
}

// MakeZeroed is Make with the n elements cleared.
func MakeZeroed[T any](a *Arena, n int) []T {
	a.checkLive()
	buf, h := GetZeroed[T](a.pool, n)
	if h.Pooled() {
		a.out = append(a.out, h)
	}
	return buf
}

// MakeCap returns a length-n, capacity-(at least c) slice owned by the
// arena, for append-style accumulation against a known bound.
func MakeCap[T any](a *Arena, n, c int) []T {
	a.checkLive()
	buf, h := GetCap[T](a.pool, n, c)
	if h.Pooled() {
		a.out = append(a.out, h)
	}
	return buf
}

func (a *Arena) checkLive() {
	if a.released {
		panic("scratch: Make on released Arena")
	}
}
