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
	// largeClass is the first class handled by the global large list
	// rather than the per-shard lists (1 MiB).
	largeClass = 14
	// smallCap bounds slabs kept per (shard, class).
	smallCap = 8
	// largeBytesCap bounds the bytes parked across all large classes.
	largeBytesCap = 256 << 20
	nshards       = 16
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

type shard struct {
	mu   sync.Mutex
	free [largeClass]struct {
		head *slab
		n    int
	}
	_ [64]byte // avoid false sharing between shard mutexes
}

// Pool is a size-class buffer pool. The zero value is not usable;
// use Default, New, or the process-wide Off sentinel.
type Pool struct {
	off    bool
	shards [nshards]shard

	largeMu    sync.Mutex
	large      [numClasses]*slab
	largeBytes int

	arenaMu   sync.Mutex
	arenaFree []*Arena

	hits     atomic.Int64
	misses   atomic.Int64
	bypasses atomic.Int64
	live     atomic.Int64
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
// the bytes parked in free lists, is summed from the lists' lengths.
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
	pooled := 0
	for i := range p.shards {
		sh := &p.shards[i]
		sh.mu.Lock()
		for c := range sh.free {
			pooled += sh.free[c].n * classBytes(c)
		}
		sh.mu.Unlock()
	}
	p.largeMu.Lock()
	pooled += p.largeBytes
	p.largeMu.Unlock()
	return Stats{
		Hits:        p.hits.Load(),
		Misses:      p.misses.Load(),
		Bypasses:    p.bypasses.Load(),
		BytesLive:   p.live.Load(),
		BytesPooled: int64(pooled),
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

// shardIdx picks a free-list shard from the caller's stack address — a
// cheap goroutine-local hint that spreads concurrent traffic across
// the shard mutexes without any goroutine identity API. The 64 KiB
// granularity keeps one goroutine's frames (and thus its Get/Put
// pairs) on one shard at any call depth; distinct goroutines' stacks
// land in distinct regions with high probability.
func shardIdx() int {
	var x byte
	return int((uintptr(unsafe.Pointer(&x)) >> 16) % nshards)
}

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
	s := p.take(class)
	if s == nil {
		p.misses.Add(1)
		s = &slab{pool: p, mem: make([]byte, classBytes(class)), class: class}
	} else {
		p.hits.Add(1)
	}
	p.live.Add(int64(classBytes(class)))
	buf := unsafe.Slice((*T)(unsafe.Pointer(unsafe.SliceData(s.mem))), uintptr(len(s.mem))/sz)[:n]
	if zero {
		clear(buf)
	}
	return buf, Handle{s: s, gen: s.gen.Load()}
}

// take pops a free slab of the class, or returns nil.
func (p *Pool) take(class int) *slab {
	if class >= largeClass {
		p.largeMu.Lock()
		s := p.large[class]
		if s != nil {
			p.large[class] = s.next
			p.largeBytes -= classBytes(class)
			s.next = nil
		}
		p.largeMu.Unlock()
		return s
	}
	sh := &p.shards[shardIdx()]
	sh.mu.Lock()
	f := &sh.free[class]
	s := f.head
	if s != nil {
		f.head = s.next
		f.n--
		s.next = nil
	}
	sh.mu.Unlock()
	return s
}

// Put returns a buffer to its pool. The zero Handle (a bypassed Get)
// is a no-op. Putting the same Handle twice, or a handle whose buffer
// an Arena already released, panics: the generation stamp recorded at
// Get time no longer matches the slab's.
func Put(h Handle) {
	s := h.s
	if s == nil {
		return
	}
	if !s.gen.CompareAndSwap(h.gen, h.gen+1) {
		panic("scratch: Put of stale handle (double Put or use after Release)")
	}
	p := s.pool
	p.live.Add(-int64(classBytes(s.class)))
	p.park(s)
}

// park returns a slab to a free list, or drops it for the GC when the
// class or byte caps are reached.
func (p *Pool) park(s *slab) {
	if s.class >= largeClass {
		cb := classBytes(s.class)
		p.largeMu.Lock()
		if p.largeBytes+cb <= largeBytesCap {
			s.next = p.large[s.class]
			p.large[s.class] = s
			p.largeBytes += cb
		}
		p.largeMu.Unlock()
		return
	}
	sh := &p.shards[shardIdx()]
	sh.mu.Lock()
	f := &sh.free[s.class]
	if f.n < smallCap {
		s.next = f.head
		f.head = s
		f.n++
	}
	sh.mu.Unlock()
}
