package rescache

import (
	"testing"

	"repro/internal/kernel"
)

// prime computes k on a fresh record and inserts the result, returning
// a pristine copy of the same input for lookup. While the entry fits
// without evicting, the first lookup returns a valid token; when it
// would evict, the first lookup is a first sighting with an invalid
// token and the second returns a valid one.
func prime(t *testing.T, c *Cache, tenant, name string, n int, seed uint64) *kernel.Args {
	t.Helper()
	k := kernel.MustLookup(name)
	a := k.Gen(n, seed)
	full := c.Stats().Bytes+int64(8*n)+entryOverhead > c.max
	tok, hit := c.Lookup(tenant, k, a)
	if full {
		if hit || tok.Valid() {
			t.Fatalf("%s: first sighting on a full cache hit=%v valid=%v, want a miss with an invalid token", name, hit, tok.Valid())
		}
		tok, hit = c.Lookup(tenant, k, a)
	}
	if hit {
		t.Fatalf("%s: unexpected hit on a fresh input", name)
	}
	if !tok.Valid() {
		t.Fatalf("%s: miss token invalid for cacheable kernel (full=%v)", name, full)
	}
	k.Serial(a)
	c.Insert(tenant, k, tok, a)
	return k.Gen(n, seed)
}

// fill stores one-word sum results under their own tenant until the
// cache has no room for another, so that every later first sighting
// would have to evict and the doorkeeper gates it. It returns the stats
// at that point, for tests to count from.
func fill(t *testing.T, c *Cache) Stats {
	t.Helper()
	k := kernel.MustLookup("sum")
	for i := int64(0); ; i++ {
		a := &kernel.Args{Xs: []int64{i}}
		tok, hit := c.Lookup("filler", k, a)
		if hit {
			t.Fatalf("filler %d hit", i)
		}
		if !tok.Valid() {
			return c.Stats()
		}
		k.Serial(a)
		c.Insert("filler", k, tok, a)
	}
}

// since is st's activity after base: counters are differences,
// occupancy is st's own.
func since(st, base Stats) Stats {
	st.Hits -= base.Hits
	st.Misses -= base.Misses
	st.Inserts -= base.Inserts
	st.Evictions -= base.Evictions
	st.Invalidations -= base.Invalidations
	return st
}

// TestHitRestoresEveryOutField runs the full miss-compute-insert-hit
// cycle for one kernel of each output shape and checks the restored
// record against a serial recompute.
func TestHitRestoresEveryOutField(t *testing.T) {
	for _, name := range []string{"sort", "scan", "sum", "topk", "select", "gups"} {
		t.Run(name, func(t *testing.T) {
			c := New(Config{})
			k := kernel.MustLookup(name)
			a := prime(t, c, "t0", name, 256, 7)
			if _, hit := c.Lookup("t0", k, a); !hit {
				t.Fatal("second lookup of identical input missed")
			}
			want := k.Gen(256, 7)
			k.Serial(want)
			if err := k.Check(a, want); err != nil {
				t.Fatalf("restored output diverges from recompute: %v", err)
			}
			st := c.Stats()
			if st.Hits != 1 || st.Misses != 1 || st.Inserts != 1 {
				t.Fatalf("stats = %+v, want 1 hit / 1 miss / 1 insert", st)
			}
		})
	}
}

// TestUncacheableKernel: a kernel without a CacheSpec (or with a
// function/graph input) yields an invalid token and no counters move.
func TestUncacheableKernel(t *testing.T) {
	c := New(Config{})
	k := kernel.MustLookup("histogram")
	a := k.Gen(64, 1)
	tok, hit := c.Lookup("t0", k, a)
	if hit || tok.Valid() {
		t.Fatal("histogram (function input) reported cacheable")
	}
	if st := c.Stats(); st.Hits != 0 || st.Misses != 0 {
		t.Fatalf("uncacheable lookup moved counters: %+v", st)
	}
}

// TestTenantsAreIsolated: one tenant's entry is invisible to another.
func TestTenantsAreIsolated(t *testing.T) {
	c := New(Config{})
	k := kernel.MustLookup("sum")
	a := prime(t, c, "alice", "sum", 128, 3)
	if _, hit := c.Lookup("bob", k, a); hit {
		t.Fatal("bob hit alice's entry")
	}
}

// TestBumpInvalidates: a generation bump turns a guaranteed hit into a
// miss and sweeps the tenant's entries, leaving other tenants intact.
func TestBumpInvalidates(t *testing.T) {
	c := New(Config{})
	k := kernel.MustLookup("sort")
	a := prime(t, c, "alice", "sort", 128, 3)
	b := prime(t, c, "bob", "sort", 128, 4)
	if g := c.Bump("alice"); g != 1 {
		t.Fatalf("first bump -> generation %d, want 1", g)
	}
	if _, hit := c.Lookup("alice", k, a); hit {
		t.Fatal("hit survived a generation bump")
	}
	if _, hit := c.Lookup("bob", k, b); !hit {
		t.Fatal("bob's entry swept by alice's bump")
	}
	st := c.Stats()
	if st.Invalidations != 1 {
		t.Fatalf("invalidations = %d, want 1", st.Invalidations)
	}
}

// TestStaleTokenInsertDropped is the migration-safety property: a
// result computed against pre-bump input must not be stored under the
// post-bump generation.
func TestStaleTokenInsertDropped(t *testing.T) {
	c := New(Config{})
	k := kernel.MustLookup("sum")
	a := k.Gen(64, 9)
	tok, _ := c.Lookup("t0", k, a)
	if !tok.Valid() {
		t.Fatal("miss token invalid; the drop below would be vacuous")
	}
	c.Bump("t0") // races the (conceptual) kernel run
	k.Serial(a)
	c.Insert("t0", k, tok, a)
	if st := c.Stats(); st.Inserts != 0 || st.Entries != 0 {
		t.Fatalf("stale-token insert was stored: %+v", st)
	}
}

// TestLRUEviction: a tight budget evicts the least-recently-used
// entry first, and touching an entry protects it.
func TestLRUEviction(t *testing.T) {
	const n = 64
	entryBytes := int64(8*n) + entryOverhead
	c := New(Config{MaxBytes: 2 * entryBytes})
	k := kernel.MustLookup("sort")

	a0 := prime(t, c, "t0", "sort", n, 0)
	prime(t, c, "t0", "sort", n, 1)
	if _, hit := c.Lookup("t0", k, a0); !hit { // a0 becomes MRU
		t.Fatal("a0 missed before eviction")
	}
	prime(t, c, "t0", "sort", n, 2) // evicts a1 (LRU)

	if _, hit := c.Lookup("t0", k, k.Gen(n, 1)); hit {
		t.Fatal("LRU entry survived eviction")
	}
	for _, seed := range []uint64{0, 2} {
		if _, hit := c.Lookup("t0", k, k.Gen(n, seed)); !hit {
			t.Fatalf("retained entry seed=%d missed", seed)
		}
	}
	st := c.Stats()
	if st.Evictions != 1 || st.Entries != 2 {
		t.Fatalf("stats = %+v, want 1 eviction / 2 entries", st)
	}
	if st.Bytes > c.max {
		t.Fatalf("bytes %d exceeds budget %d", st.Bytes, c.max)
	}
}

// TestOversizedEntryNotStored: an entry larger than the whole budget
// is refused rather than evicting everything.
func TestOversizedEntryNotStored(t *testing.T) {
	c := New(Config{MaxBytes: 256})
	k := kernel.MustLookup("sort")
	a := k.Gen(1024, 5)
	c.Lookup("t0", k, a) // first sighting: the entry cannot fit, so it is gated
	tok, _ := c.Lookup("t0", k, a)
	if !tok.Valid() {
		t.Fatal("second-sighting token invalid; the refusal below would be vacuous")
	}
	k.Serial(a)
	c.Insert("t0", k, tok, a)
	if st := c.Stats(); st.Entries != 0 {
		t.Fatalf("oversized entry stored: %+v", st)
	}
}

// TestDuplicateInsertDropped: two concurrent misses on the same input
// both compute; only the first result is stored.
func TestDuplicateInsertDropped(t *testing.T) {
	c := New(Config{})
	k := kernel.MustLookup("sum")
	a1, a2 := k.Gen(64, 6), k.Gen(64, 6)
	tok1, _ := c.Lookup("t0", k, a1)
	tok2, _ := c.Lookup("t0", k, a2)
	if !tok1.Valid() || !tok2.Valid() {
		t.Fatalf("tokens valid = %v/%v; the drop below would be vacuous", tok1.Valid(), tok2.Valid())
	}
	k.Serial(a1)
	k.Serial(a2)
	c.Insert("t0", k, tok1, a1)
	c.Insert("t0", k, tok2, a2)
	if st := c.Stats(); st.Inserts != 1 || st.Entries != 1 {
		t.Fatalf("duplicate insert stored: %+v", st)
	}
}

// TestLookupHitAllocs pins the hit path at 0 allocs/op — the property
// serve's fast path is built on. Retried to absorb GC jitter.
func TestLookupHitAllocs(t *testing.T) {
	c := New(Config{})
	k := kernel.MustLookup("sum")
	a := prime(t, c, "t0", "sum", 512, 11)
	for i := 0; i < 64; i++ { // warm up
		if _, hit := c.Lookup("t0", k, a); !hit {
			t.Fatal("warmup lookup missed")
		}
	}
	var allocs float64
	for attempt := 0; attempt < 3; attempt++ {
		allocs = testing.AllocsPerRun(100, func() {
			if _, hit := c.Lookup("t0", k, a); !hit {
				panic("hit path missed")
			}
		})
		if allocs == 0 {
			return
		}
	}
	t.Fatalf("Lookup hit path allocates %v allocs/op, want 0", allocs)
}

// TestFingerprintIgnoresDstLength: the same query with a differently
// sized destination is still a hit (Dst is output space, not input).
func TestFingerprintIgnoresDstLength(t *testing.T) {
	c := New(Config{})
	k := kernel.MustLookup("topk")
	a := prime(t, c, "t0", "topk", 256, 2)
	a.Dst = make([]int64, 0, len(a.Xs)) // different len/cap, same input
	if _, hit := c.Lookup("t0", k, a); !hit {
		t.Fatal("varying Dst capacity broke the fingerprint")
	}
	want := k.Gen(256, 2)
	k.Serial(want)
	if err := k.Check(a, want); err != nil {
		t.Fatalf("restored into resized Dst diverges: %v", err)
	}
}

// TestGenerationsAdvanceIndependently documents per-tenant counters.
func TestGenerationsAdvanceIndependently(t *testing.T) {
	c := New(Config{})
	for i := 0; i < 3; i++ {
		c.Bump("alice")
	}
	c.Bump("bob")
	if g := c.Generation("alice"); g != 3 {
		t.Fatalf("alice generation = %d, want 3", g)
	}
	if g := c.Generation("bob"); g != 1 {
		t.Fatalf("bob generation = %d, want 1", g)
	}
	if g := c.Generation("carol"); g != 0 {
		t.Fatalf("carol generation = %d, want 0", g)
	}
}

// fullBytes is the budget of the caches the admission tests fill: room
// for 64 filler entries, and for the twin sort entries
// TestSketchCollisionNeverServesWrongResult stores on top of them.
const fullBytes = 8 << 10

// TestFirstSightingStoredWhileRoom: a cache with room for the entry
// stores a first sighting outright, so one pass over a pool that fits
// warms it; once the entry would evict, a first sighting is gated.
func TestFirstSightingStoredWhileRoom(t *testing.T) {
	c := New(Config{MaxBytes: fullBytes})
	k := kernel.MustLookup("sort")
	a := k.Gen(256, 1)
	tok, hit := c.Lookup("t0", k, a)
	if hit || !tok.Valid() {
		t.Fatalf("first sighting with room hit=%v valid=%v, want a miss with a valid token", hit, tok.Valid())
	}
	k.Serial(a)
	c.Insert("t0", k, tok, a)
	if _, hit := c.Lookup("t0", k, k.Gen(256, 1)); !hit {
		t.Fatal("second sighting missed the entry stored on the first")
	}
	fill(t, c)
	if tok, hit := c.Lookup("t0", k, k.Gen(256, 2)); hit || tok.Valid() {
		t.Fatalf("first sighting on a full cache hit=%v valid=%v, want a miss with an invalid token", hit, tok.Valid())
	}
}

// TestFirstSightingNotStored pins admission on the second sighting
// once the cache is full: the first Lookup of an input is a miss whose
// invalid token stores nothing, the second is a miss with a valid
// token, and the result stored under it serves the third.
func TestFirstSightingNotStored(t *testing.T) {
	c := New(Config{MaxBytes: fullBytes})
	base := fill(t, c)
	k := kernel.MustLookup("sort")
	a := k.Gen(256, 1)
	tok, hit := c.Lookup("t0", k, a)
	if hit || tok.Valid() {
		t.Fatalf("first sighting hit=%v valid=%v, want a miss with an invalid token", hit, tok.Valid())
	}
	k.Serial(a)
	c.Insert("t0", k, tok, a) // what a caller that ignores Valid would do
	if st := since(c.Stats(), base); st.Misses != 1 || st.Entries != base.Entries || st.Inserts != 0 {
		t.Fatalf("stats after first sighting = %+v, want 1 miss / no new entry / 0 inserts", st)
	}

	a = k.Gen(256, 1)
	tok, hit = c.Lookup("t0", k, a)
	if hit || !tok.Valid() {
		t.Fatalf("second sighting hit=%v valid=%v, want a miss with a valid token", hit, tok.Valid())
	}
	k.Serial(a)
	c.Insert("t0", k, tok, a)
	if st := since(c.Stats(), base); st.Misses != 2 || st.Inserts != 1 || st.Evictions == 0 {
		t.Fatalf("stats after second sighting = %+v, want 2 misses / 1 insert that evicts", st)
	}

	a = k.Gen(256, 1)
	if _, hit := c.Lookup("t0", k, a); !hit {
		t.Fatal("third sighting missed the stored entry")
	}
	want := k.Gen(256, 1)
	k.Serial(want)
	if err := k.Check(a, want); err != nil {
		t.Fatalf("restored output diverges from recompute: %v", err)
	}
}

// TestStoredEntryAlwaysProbed: an input with a stored entry hits even
// after a flood of first sightings has overwritten its doorkeeper
// slot — the live count, not the doorkeeper, keeps it probed.
func TestStoredEntryAlwaysProbed(t *testing.T) {
	c := New(Config{MaxBytes: fullBytes})
	fill(t, c)
	k := kernel.MustLookup("sum")
	a := prime(t, c, "t0", "sum", 512, 3)
	sk := sketch(k, a)
	base := c.Stats()

	const flood = 4 * seenSlots
	xs := []int64{1, 2, 3, 4}
	for i := 0; i < flood; i++ {
		b := kernel.Args{Xs: xs, Seed: uint64(i)}
		if tok, hit := c.Lookup("t0", k, &b); hit || tok.Valid() {
			t.Fatalf("flood lookup %d: hit=%v valid=%v, want a first sighting", i, hit, tok.Valid())
		}
	}
	if c.seen[sk&(seenSlots-1)] == sk {
		t.Fatal("flood left the stored input's doorkeeper slot intact; the probe below proves nothing")
	}
	if _, hit := c.Lookup("t0", k, a); !hit {
		t.Fatal("stored entry missed after a flood of first sightings")
	}
	if st := since(c.Stats(), base); st.Hits != 1 || st.Misses != flood || st.Inserts != 0 {
		t.Fatalf("stats = %+v, want 1 hit / %d misses / 0 inserts", st, flood)
	}
}

// TestSketchCollisionNeverServesWrongResult: on a full cache, an input
// that agrees with a stored one at every sampled index (same sketch)
// but differs at an unsampled one is probed, misses on the full
// fingerprint, and once stored each input hits with its own result.
func TestSketchCollisionNeverServesWrongResult(t *testing.T) {
	const n, seed = 256, 5
	const j = 1 // unsampled: sketchStep(256) is 9
	if j%sketchStep(n) == 0 || j == n-1 {
		t.Fatalf("index %d is sampled at n=%d", j, n)
	}
	for _, name := range []string{"sort", "scan", "sum", "topk"} {
		t.Run(name, func(t *testing.T) {
			c := New(Config{MaxBytes: fullBytes})
			fill(t, c)
			k := kernel.MustLookup(name)
			twin := func() *kernel.Args {
				a := k.Gen(n, seed)
				a.Xs[j] += 1 << 40
				return a
			}
			a := prime(t, c, "t0", name, n, seed)
			b := twin()
			if sketch(k, a) != sketch(k, b) || fingerprint(a) == fingerprint(b) {
				t.Fatal("twin does not share the sketch alone")
			}

			base := c.Stats()
			tok, hit := c.Lookup("t0", k, b)
			if hit || !tok.Valid() {
				t.Fatalf("twin lookup hit=%v valid=%v, want a miss with a valid token", hit, tok.Valid())
			}
			k.Serial(b)
			c.Insert("t0", k, tok, b)
			if st := since(c.Stats(), base); st.Inserts != 1 {
				t.Fatalf("twin not stored: %+v", st)
			}

			for i, in := range []func() *kernel.Args{func() *kernel.Args { return k.Gen(n, seed) }, twin} {
				got, want := in(), in()
				if _, hit := c.Lookup("t0", k, got); !hit {
					t.Fatalf("input %d missed its stored entry", i)
				}
				k.Serial(want)
				if err := k.Check(got, want); err != nil {
					t.Fatalf("input %d served a wrong result: %v", i, err)
				}
			}
		})
	}
}

// TestFirstSightingZeroAllocs pins the one-off request's cost on a
// full cache at 0 allocs/op: a sketch, a doorkeeper write and a
// counter.
func TestFirstSightingZeroAllocs(t *testing.T) {
	c := New(Config{MaxBytes: fullBytes})
	base := fill(t, c)
	k := kernel.MustLookup("sum")
	a := k.Gen(512, 1)
	var allocs float64
	for attempt := 0; attempt < 3; attempt++ {
		allocs = testing.AllocsPerRun(100, func() {
			a.Seed++ // a new input every call
			if tok, hit := c.Lookup("t0", k, a); hit || tok.Valid() {
				panic("not a first sighting")
			}
		})
		if allocs == 0 {
			break
		}
	}
	if allocs != 0 {
		t.Fatalf("first-sighting Lookup allocates %v allocs/op, want 0", allocs)
	}
	if st := since(c.Stats(), base); st.Inserts != 0 || st.Misses == 0 {
		t.Fatalf("stats = %+v, want misses and no inserts", st)
	}
}

// TestAdmissionIsPerKernel: on a full cache, the same input bytes sent
// to two kernels are a first sighting for each — a result is per
// kernel, so one kernel's call must not admit another's one-off call.
func TestAdmissionIsPerKernel(t *testing.T) {
	c := New(Config{MaxBytes: fullBytes})
	fill(t, c)
	xs := kernel.MustLookup("sum").Gen(256, 4).Xs
	for _, name := range []string{"sum", "sort", "scan"} {
		k := kernel.MustLookup(name)
		a := &kernel.Args{Xs: append([]int64(nil), xs...)}
		if k.Cache.Out == kernel.OutDst {
			a.Dst = make([]int64, len(xs))
		}
		if tok, hit := c.Lookup("t0", k, a); hit || tok.Valid() {
			t.Fatalf("%s: hit=%v valid=%v on bytes another kernel saw, want a first sighting", name, hit, tok.Valid())
		}
	}
}
