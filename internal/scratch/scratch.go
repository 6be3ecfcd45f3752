package scratch

import (
	"math/bits"
	"reflect"
	"sync"
	"sync/atomic"
	"unsafe"
)

const (
	minClassBytes = 64
	// numClasses spans 64 B .. 64 MiB in power-of-two steps.
	numClasses = 21
	// maxClassBytes is the largest pooled request; bigger ones bypass.
	maxClassBytes = minClassBytes << (numClasses - 1)
	// pooledBytesCap bounds the bytes parked across all classes; the
	// per-class bound is arenaCap slabs, as many as a pool parks arenas.
	pooledBytesCap = 256 << 20
)

// slab is one pooled allocation: a pointer-free byte block of exactly
// one size class, plus the generation stamp that invalidates handles.
type slab struct {
	pool  *Pool
	mem   []byte
	class int
	gen   atomic.Uint32
	next  *slab
}

// Handle names one outstanding Get for the matching Put. The zero
// Handle (from a bypassed Get) is valid and Put ignores it.
type Handle struct {
	s   *slab
	gen uint32
}

// Pooled reports whether the buffer came from the pool (false means
// the request bypassed to the ordinary allocator).
func (h Handle) Pooled() bool { return h.s != nil }

// retire advances the slab's generation stamp, so h and every copy of
// it go stale, and panics if h already was.
func (h Handle) retire() {
	if !h.s.gen.CompareAndSwap(h.gen, h.gen+1) {
		panic("scratch: Put of stale handle (double Put or use after Release)")
	}
}

// Pool is a size-class buffer pool. The zero value is not usable;
// use Default, New, or the process-wide Off sentinel.
type Pool struct {
	off bool

	// mu guards everything below it; Get, Put, AcquireArena and
	// Arena.Release each hold it once, for a few list operations.
	mu   sync.Mutex
	free [numClasses]struct {
		head *slab
		n    int
	}
	pooled int // bytes parked in free
	arenas []*Arena
	hits   int64
	misses int64
	live   int64 // pooled bytes out on loan

	bypasses atomic.Int64 // counted without the lock
}

// New creates an empty pool.
func New() *Pool { return &Pool{} }

// Off is the disabled pool: every Get falls through to the ordinary
// allocator (and Put is a no-op), reinstating the allocate-per-call
// behavior as a measurable baseline (cmd/parbench -scratch=off).
var Off = &Pool{off: true}

var (
	defaultOnce sync.Once
	defaultPool *Pool
)

// Default returns the process-wide shared pool, which every kernel
// uses unless par.Options.Scratch pins another.
func Default() *Pool {
	defaultOnce.Do(func() { defaultPool = New() })
	return defaultPool
}

// Stats is a snapshot of a pool's counters. Every Get is one Hit, Miss
// or Bypass. BytesLive tracks pooled bytes out on loan; BytesPooled,
// the bytes parked in free lists, is the sum the byte cap is checked
// against.
type Stats struct {
	Hits     int64 // served by reusing a pooled slab
	Misses   int64 // pooled request that had to allocate a new slab
	Bypasses int64 // ineligible type/size or disabled pool
	// BytesLive is pooled bytes currently out on loan (gauge).
	BytesLive int64
	// BytesPooled is bytes parked in free lists, ready for reuse (gauge).
	BytesPooled int64
}

// Stats returns a snapshot of the pool's counters, the allocator-side
// companion to the executor's steal counters.
func (p *Pool) Stats() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return Stats{
		Hits:        p.hits,
		Misses:      p.misses,
		Bypasses:    p.bypasses.Load(),
		BytesLive:   p.live,
		BytesPooled: int64(p.pooled),
	}
}

// elemInfo reports the element size of T and whether []T may be carved
// from a pooled pointer-free slab. Only plain scalar kinds qualify:
// anything that can hold a pointer must stay on the ordinary heap so
// the garbage collector can see it.
func elemInfo[T any]() (size uintptr, ok bool) {
	t := reflect.TypeOf((*T)(nil)).Elem()
	switch t.Kind() {
	case reflect.Bool,
		reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
		reflect.Uintptr, reflect.Float32, reflect.Float64,
		reflect.Complex64, reflect.Complex128:
		return t.Size(), true
	}
	return 0, false
}

// classFor returns the size class covering a request of b bytes.
func classFor(b int) int {
	if b <= minClassBytes {
		return 0
	}
	return bits.Len(uint(b-1)) - 6
}

func classBytes(c int) int { return minClassBytes << c }

// Get returns a []T of length n (with any extra slab capacity exposed
// via cap) and the Handle to Put it back with. Contents are
// unspecified unless the request bypassed the pool. p == nil means
// Default().
func Get[T any](p *Pool, n int) ([]T, Handle) {
	return get[T](p, n, n, false)
}

// GetZeroed is Get with the first n elements cleared.
func GetZeroed[T any](p *Pool, n int) ([]T, Handle) {
	return get[T](p, n, n, true)
}

// GetCap is Get returning a slice of length n and capacity at least c
// (for append-style use where the bound is known).
func GetCap[T any](p *Pool, n, c int) ([]T, Handle) {
	if c < n {
		c = n
	}
	return get[T](p, n, c, false)
}

func get[T any](p *Pool, n, c int, zero bool) ([]T, Handle) {
	if p == nil {
		p = Default()
	}
	if n < 0 || c < n {
		panic("scratch: Get with negative or inconsistent length")
	}
	sz, podOK := elemInfo[T]()
	bytes := 0
	if podOK && c > 0 {
		if c > int(uintptr(maxClassBytes)/sz) {
			podOK = false // request larger than the largest class
		} else {
			bytes = c * int(sz)
		}
	}
	if p.off || !podOK || c == 0 {
		p.bypasses.Add(1)
		return make([]T, n, c), Handle{}
	}
	class := classFor(bytes)
	cb := classBytes(class)
	p.mu.Lock()
	f := &p.free[class]
	s := f.head
	if s != nil {
		f.head = s.next
		f.n--
		p.pooled -= cb
		p.hits++
	} else {
		p.misses++
	}
	p.live += int64(cb)
	p.mu.Unlock()
	if s == nil {
		s = &slab{pool: p, mem: make([]byte, cb), class: class}
	}
	s.next = nil
	buf := unsafe.Slice((*T)(unsafe.Pointer(unsafe.SliceData(s.mem))), uintptr(len(s.mem))/sz)[:n]
	if zero {
		clear(buf)
	}
	return buf, Handle{s: s, gen: s.gen.Load()}
}

// Put returns a buffer to its pool. The zero Handle (a bypassed Get)
// is a no-op. Putting the same Handle twice, or a handle whose buffer
// an Arena already released, panics: the generation stamp recorded at
// Get time no longer matches the slab's.
func Put(h Handle) {
	if h.s == nil {
		return
	}
	h.retire()
	p := h.s.pool
	p.mu.Lock()
	p.park(h.s)
	p.mu.Unlock()
}

// park takes a returned slab off loan and onto its class's free list,
// or drops it for the GC when the class or byte cap is reached. p.mu
// must be held.
func (p *Pool) park(s *slab) {
	cb := classBytes(s.class)
	p.live -= int64(cb)
	f := &p.free[s.class]
	if f.n < arenaCap && p.pooled+cb <= pooledBytesCap {
		s.next = f.head
		f.head = s
		f.n++
		p.pooled += cb
	}
}
