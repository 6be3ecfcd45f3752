package rescache

import (
	"math/bits"
	"sync"

	"repro/internal/kernel"
	"repro/internal/scratch"
)

// DefaultMaxBytes bounds a cache whose Config leaves MaxBytes zero.
const DefaultMaxBytes = 64 << 20

// entryOverhead approximates the per-entry bookkeeping cost (key
// strings, list links, map slot) charged against MaxBytes, so a flood
// of scalar entries is still bounded.
const entryOverhead = 128

// Config parameterizes New.
type Config struct {
	// Pool supplies entry buffers; nil means scratch.Default().
	Pool *scratch.Pool
	// MaxBytes bounds the cache's payload plus per-entry overhead;
	// zero means DefaultMaxBytes.
	MaxBytes int64
}

// seenSlots sizes the admission doorkeeper: one sketch per slot,
// direct-mapped by the sketch's low bits. A slot collision only delays
// one admission, so the table is fixed rather than configured.
const seenSlots = 1 << 14

// Token is Lookup's miss-side receipt: the fingerprint, sketch and
// generation of the input at lookup time, captured before the kernel
// mutates it in place. Insert stores under exactly this (fp, gen) pair
// and drops the result if the tenant's generation has moved on.
type Token struct {
	fp, sk, gen uint64
	ok          bool
}

// Valid reports whether the token came from a cacheable miss whose
// result may be stored — the only tokens worth passing to Insert. Once
// the cache is full, that means a miss on an input seen before: a
// first sighting then returns an invalid token and is not stored.
func (t Token) Valid() bool { return t.ok }

// Stats is a point-in-time snapshot of cache activity.
type Stats struct {
	// Entries and Bytes describe current occupancy.
	Entries int
	Bytes   int64
	// Hits and Misses count Lookup outcomes on cacheable calls (a
	// first sighting is a miss); uncacheable calls count as neither.
	Hits   uint64
	Misses uint64
	// Inserts counts stored results; Evictions counts entries dropped
	// for space; Invalidations counts entries swept by Bump.
	Inserts       uint64
	Evictions     uint64
	Invalidations uint64
}

// key identifies one entry. A comparable struct (no pointers into the
// cache) so Lookup builds it on the stack and probes the map without
// allocating — the hit path's 0 allocs/op depends on this.
type key struct {
	tenant, kern string
	fp, gen      uint64
}

type entry struct {
	key        key
	sk         uint64 // sketch of the input, counted in Cache.live
	out        kernel.OutField
	buf        []int64 // OutXs / OutDst payload
	h          scratch.Handle
	scalar     int64 // OutScalar payload
	bytes      int64
	prev, next *entry
}

// Cache is a bounded, generation-stamped result cache. One Cache is
// safely shared by every shard of a sharded server; all methods are
// concurrency-safe.
type Cache struct {
	pool *scratch.Pool
	max  int64

	mu         sync.Mutex
	m          map[key]*entry
	gens       map[string]uint64 // per-tenant generation; grows only on Bump
	head, tail *entry            // LRU list, head = most recent
	bytes      int64
	live       map[uint64]int32  // stored entries per input sketch
	seen       [seenSlots]uint64 // doorkeeper: recently seen sketches

	hits, misses, inserts, evictions, invalidations uint64
}

// New builds a cache from cfg, applying defaults for zero fields.
func New(cfg Config) *Cache {
	if cfg.Pool == nil {
		cfg.Pool = scratch.Default()
	}
	if cfg.MaxBytes <= 0 {
		cfg.MaxBytes = DefaultMaxBytes
	}
	return &Cache{
		pool: cfg.Pool,
		max:  cfg.MaxBytes,
		m:    make(map[key]*entry),
		gens: make(map[string]uint64),
		live: make(map[uint64]int32),
	}
}

// Cacheable reports whether this call can be cached at all: the
// kernel declares itself cacheable and the record carries no
// unfingerprintable inputs (bucket function, graph).
func Cacheable(k *kernel.Kernel, a *kernel.Args) bool {
	return k != nil && k.Cache && a.Bucket == nil && a.G == nil
}

// mix is splitmix64's finalizer — the fingerprint's scalar mixer and
// lane combiner.
func mix(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// Fingerprint round constants (xxHash64's primes) and per-lane
// initializers. Four independent accumulators matter for latency, not
// strength: a single mix-per-word chain is a serial dependency ~7ns
// deep per element, which put an O(n) half-microsecond-per-KiB floor
// under every cache *hit* — the lanes run in parallel in the pipeline
// and bring the probe under the cheapest kernel's own O(n) pass.
const (
	fpPrime1 = 0x9E3779B185EBCA87
	fpPrime2 = 0xC2B2AE3D27D4EB4F
	fpInit0  = 0x60EA27EEADC0B5D6 // fpPrime1 + fpPrime2 mod 2^64
	fpInit1  = fpPrime2
	fpInit2  = 0
	fpInit3  = 0xE220A8397B1DCDAF
)

// fpRound folds one input word into a lane (xxHash64's round: the
// rotate moves high-bit differences down where the multiply can
// spread them, so no single-bit flip can cancel a later one).
func fpRound(acc, v uint64) uint64 {
	return bits.RotateLeft64(acc+v*fpPrime2, 31) * fpPrime1
}

// fingerprint hashes the fingerprintable input fields: length and
// contents of Xs, K, Seed. Dst is deliberately excluded — it is output
// space, and callers legitimately vary its length between identical
// queries.
func fingerprint(a *kernel.Args) uint64 {
	xs := a.Xs
	var a0, a1, a2, a3 uint64 = fpInit0, fpInit1, fpInit2, fpInit3
	i := 0
	for ; i+4 <= len(xs); i += 4 {
		a0 = fpRound(a0, uint64(xs[i]))
		a1 = fpRound(a1, uint64(xs[i+1]))
		a2 = fpRound(a2, uint64(xs[i+2]))
		a3 = fpRound(a3, uint64(xs[i+3]))
	}
	h := bits.RotateLeft64(a0, 1) + bits.RotateLeft64(a1, 7) +
		bits.RotateLeft64(a2, 12) + bits.RotateLeft64(a3, 18)
	for ; i < len(xs); i++ {
		h = fpRound(h, uint64(xs[i]))
	}
	h = mix(h ^ uint64(len(xs)))
	h = mix(h ^ uint64(int64(a.K)))
	h = mix(h ^ a.Seed)
	return h
}

// sketchStep is the stride between the input words sketch samples: at
// most 32 strided words plus the last, whatever the length.
func sketchStep(n int) int { return n/32 + 1 }

// sketch is the admission filter's cheap summary of a call: the kernel
// and the fingerprinted fields — length, K, Seed and at most 33
// sampled words of Xs — so its cost does not grow with the input. The
// kernel is in it because a result is per kernel: kernels that share
// input bytes would otherwise admit each other's one-off calls. It
// only decides whether to skip the full fingerprint; it never decides
// a hit.
func sketch(k *kernel.Kernel, a *kernel.Args) uint64 {
	xs := a.Xs
	h := uint64(fpInit0)
	for i := 0; i < len(k.Name); i++ {
		h = fpRound(h, uint64(k.Name[i]))
	}
	if n := len(xs); n > 0 {
		for i, step := 0, sketchStep(n); i < n; i += step {
			h = fpRound(h, uint64(xs[i]))
		}
		h = fpRound(h, uint64(xs[n-1]))
	}
	h = mix(h ^ uint64(len(xs)))
	h = mix(h ^ uint64(int64(a.K)))
	return mix(h ^ a.Seed)
}

// Lookup probes the cache for (tenant, k, a's current input). On a hit
// it restores the cached output into a and returns (Token{}, true): no
// kernel work is needed. While an input-sized entry still fits without
// evicting, every cacheable miss returns a valid Token for a later
// Insert. Once it would not, a first sighting — no stored entry shares
// the input's sketch and the doorkeeper has not seen it — counts as a
// miss and returns an invalid token without fingerprinting, so its
// result is not stored. Uncacheable calls return an invalid token and
// count as neither hit nor miss.
func (c *Cache) Lookup(tenant string, k *kernel.Kernel, a *kernel.Args) (Token, bool) {
	if !Cacheable(k, a) {
		return Token{}, false
	}
	sk := sketch(k, a)
	// An input-sized entry: exact for an output in Xs, a cheap stand-in
	// for the others, whose size is not known before the kernel runs.
	need := int64(8*len(a.Xs)) + entryOverhead
	slot := &c.seen[sk&(seenSlots-1)]
	c.mu.Lock()
	if c.bytes+need > c.max && c.live[sk] == 0 && *slot != sk {
		*slot = sk
		c.misses++
		c.mu.Unlock()
		return Token{}, false
	}
	c.mu.Unlock()
	fp := fingerprint(a)

	c.mu.Lock()
	defer c.mu.Unlock()
	gen := c.gens[tenant]
	e, ok := c.m[key{tenant: tenant, kern: k.Name, fp: fp, gen: gen}]
	if ok && c.restoreLocked(e, a) {
		c.moveFrontLocked(e)
		c.hits++
		return Token{}, true
	}
	c.misses++
	return Token{fp: fp, sk: sk, gen: gen, ok: true}, false
}

// restoreLocked copies e's payload into a. It refuses (a defensive
// miss) if the record's shape cannot receive the payload — possible
// only under a fingerprint collision, but cheap to rule out.
func (c *Cache) restoreLocked(e *entry, a *kernel.Args) bool {
	switch e.out {
	case kernel.OutXs:
		if len(e.buf) != len(a.Xs) {
			return false
		}
		copy(a.Xs, e.buf)
	case kernel.OutDst:
		if cap(a.Dst) < len(e.buf) {
			return false
		}
		a.Dst = a.Dst[:len(e.buf)]
		copy(a.Dst, e.buf)
	case kernel.OutScalar:
		a.Out = e.scalar
	}
	return true
}

// Insert stores a's output under the token captured at Lookup. The
// store is dropped if the token is invalid, the tenant's generation
// has been bumped since (the result was computed against invalidated
// input), or an equal entry already exists.
func (c *Cache) Insert(tenant string, k *kernel.Kernel, tok Token, a *kernel.Args) {
	if !tok.ok || !k.Cache {
		return
	}
	e := &entry{
		key: key{tenant: tenant, kern: k.Name, fp: tok.fp, gen: tok.gen},
		sk:  tok.sk,
		out: k.Out,
	}
	var src []int64
	switch e.out {
	case kernel.OutXs:
		src = a.Xs
	case kernel.OutDst:
		src = a.Dst
	case kernel.OutScalar:
		e.scalar = a.Out
	}
	if src != nil {
		// Copy outside the lock; a failed insert just returns the buffer.
		e.buf, e.h = scratch.Get[int64](c.pool, len(src))
		copy(e.buf, src)
	}
	e.bytes = int64(8*len(e.buf)) + entryOverhead
	if e.bytes > c.max {
		scratch.Put(e.h)
		return
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	if c.gens[tenant] != tok.gen {
		// A Bump raced the kernel run: this result reflects invalidated
		// input and must not be stored.
		scratch.Put(e.h)
		return
	}
	if _, dup := c.m[e.key]; dup {
		scratch.Put(e.h)
		return
	}
	for c.bytes+e.bytes > c.max && c.tail != nil {
		c.dropLocked(c.tail)
		c.evictions++
	}
	c.m[e.key] = e
	c.live[e.sk]++
	c.pushFrontLocked(e)
	c.bytes += e.bytes
	c.inserts++
}

// Bump advances tenant's generation, invalidating every entry the
// tenant has: correctness is the key mismatch (a bumped generation is
// never observed again), and an eager sweep frees the memory now
// rather than waiting for LRU pressure. Returns the new generation.
func (c *Cache) Bump(tenant string) uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.gens[tenant]++
	for e := c.head; e != nil; {
		next := e.next
		if e.key.tenant == tenant {
			c.dropLocked(e)
			c.invalidations++
		}
		e = next
	}
	return c.gens[tenant]
}

// Generation returns tenant's current generation.
func (c *Cache) Generation(tenant string) uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.gens[tenant]
}

// Stats snapshots current occupancy and lifetime counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Entries:       len(c.m),
		Bytes:         c.bytes,
		Hits:          c.hits,
		Misses:        c.misses,
		Inserts:       c.inserts,
		Evictions:     c.evictions,
		Invalidations: c.invalidations,
	}
}

// dropLocked unlinks e, deletes it from the map and its sketch's live
// count, and returns its buffer to the pool.
func (c *Cache) dropLocked(e *entry) {
	c.unlinkLocked(e)
	delete(c.m, e.key)
	c.live[e.sk]--
	if c.live[e.sk] == 0 {
		delete(c.live, e.sk)
	}
	c.bytes -= e.bytes
	scratch.Put(e.h)
	e.buf = nil
}

func (c *Cache) pushFrontLocked(e *entry) {
	e.prev = nil
	e.next = c.head
	if c.head != nil {
		c.head.prev = e
	}
	c.head = e
	if c.tail == nil {
		c.tail = e
	}
}

func (c *Cache) unlinkLocked(e *entry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		c.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		c.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (c *Cache) moveFrontLocked(e *entry) {
	if c.head == e {
		return
	}
	c.unlinkLocked(e)
	c.pushFrontLocked(e)
}
