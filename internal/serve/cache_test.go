package serve

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/kernel"
	"repro/internal/par"
	"repro/internal/rescache"
	"repro/internal/seq"
)

// cachetestVersion is the observable world state behind the cachetest
// kernel: its result is whatever the version was when it executed, so
// a stale cache entry is directly visible as a stale version number.
var cachetestVersion atomic.Int64

// kernelCachetest is a test-only registration (this test binary's
// registry; serve tests never iterate the registry, so the extra
// entry is invisible elsewhere). Its output is a pure function of
// nothing the fingerprint sees — which is exactly what makes cache
// staleness observable: only generation bumps keep it honest.
var kernelCachetest = kernel.Register(kernel.Kernel{
	Name:  "cachetest",
	Title: "test-only: Out = global version at execution time",
	Variants: []kernel.Variant{{
		Name: "read",
		Run:  func(a *kernel.Args, _ par.Options) { a.Out = cachetestVersion.Load() },
	}},
	Serial: func(a *kernel.Args) { a.Out = cachetestVersion.Load() },
	Gen: func(n int, seed uint64) *kernel.Args {
		return &kernel.Args{Xs: make([]int64, n), Seed: seed}
	},
	Check: func(got, want *kernel.Args) error {
		if got.Out != want.Out {
			return fmt.Errorf("Out = %d, want %d", got.Out, want.Out)
		}
		return nil
	},
	Out:   kernel.OutScalar,
	Cache: true,
})

// TestCallCacheHit pins the fast path end to end: the second identical
// call is served from the cache (correct value, CacheHits counted on
// server and tenant, not Accepted), and uncacheable kernels bypass the
// cache entirely.
func TestCallCacheHit(t *testing.T) {
	s := NewSharded(ShardedConfig{Shards: 1, Config: Config{Cache: rescache.New(rescache.Config{})}})
	defer s.Close()
	xs := []int64{5, 1, 4, 2, 3}

	got, err := Sum(s, "t", xs)
	if err != nil || got != 15 {
		t.Fatalf("first Sum = %d, %v", got, err)
	}
	got, err = Sum(s, "t", xs)
	if err != nil || got != 15 {
		t.Fatalf("cached Sum = %d, %v", got, err)
	}
	st := s.Stats().Aggregate
	if st.CacheHits != 1 || st.CacheMisses != 1 {
		t.Fatalf("stats = %+v, want 1 cache hit / 1 miss", st)
	}
	if st.Accepted != 1 || st.Completed != 1 {
		t.Fatalf("hit was admitted: %+v (want 1 accepted / 1 completed)", st)
	}
	ts := s.TenantStats()
	if len(ts) != 1 || ts[0].CacheHits != 1 {
		t.Fatalf("tenant stats = %+v, want CacheHits=1", ts)
	}

	// Histogram's bucket function cannot be fingerprinted: repeated
	// calls recompute and never touch the cache counters.
	hist := make([]int, 4)
	for i := 0; i < 2; i++ {
		if err := Histogram(s, "t", hist, xs, func(v int64) int { return int(v) % 4 }); err != nil {
			t.Fatalf("histogram: %v", err)
		}
	}
	if st := s.Stats().Aggregate; st.CacheHits != 1 || st.CacheMisses != 1 {
		t.Fatalf("uncacheable kernel moved cache counters: %+v", st)
	}
}

// TestCallCacheRestoresSliceOutputs covers the two slice shapes: sort
// (result in Xs) and scan (result in Dst).
func TestCallCacheRestoresSliceOutputs(t *testing.T) {
	s := NewSharded(ShardedConfig{Shards: 1, Config: Config{Cache: rescache.New(rescache.Config{})}})
	defer s.Close()

	// Sort: prime with an already-sorted input so the cached entry's
	// fingerprint (of the input) matches later calls.
	xs := []int64{1, 2, 3, 4, 5}
	for i := 0; i < 2; i++ {
		if err := Sort(s, "t", xs); err != nil {
			t.Fatalf("sort %d: %v", i, err)
		}
		for j := range xs {
			if xs[j] != int64(j+1) {
				t.Fatalf("sort %d: xs = %v", i, xs)
			}
		}
	}

	src := []int64{1, 2, 3}
	for i := 0; i < 2; i++ {
		dst := make([]int64, 3)
		if err := Scan(s, "t", dst, src); err != nil {
			t.Fatalf("scan %d: %v", i, err)
		}
		if dst[0] != 1 || dst[1] != 3 || dst[2] != 6 {
			t.Fatalf("scan %d: dst = %v", i, dst)
		}
	}
	if st := s.Stats().Aggregate; st.CacheHits != 2 {
		t.Fatalf("stats = %+v, want 2 cache hits", st)
	}
}

// TestCacheHitZeroAllocs pins the acceptance bar — a request served
// through a typed helper on a concrete *Sharded costs 0 allocs/op —
// for all six helpers on one shard (the "server" rows) and on two.
// Each call site below names its front's concrete type, which is the shape the bar is about:
// the helper inlines, CallBudget devirtualises and the argument record
// stays on the stack. The four cacheable shapes are measured on the hit
// path; histogram (a bucket function cannot be fingerprinted) and BFS
// (neither can a graph) always recompute, so they are measured on the
// batch path, BFS less the distance slice its kernel returns.
func TestCacheHitZeroAllocs(t *testing.T) {
	s := NewSharded(ShardedConfig{Shards: 1, Config: Config{Cache: rescache.New(rescache.Config{})}})
	defer s.Close()
	g := NewSharded(ShardedConfig{Config: Config{Cache: rescache.New(rescache.Config{})}, Shards: 2})
	defer g.Close()

	xs := make([]int64, 2048)
	for i := range xs {
		xs[i] = int64((i * 2654435761) % 100003)
	}
	sorted := append([]int64(nil), xs...)
	seq.Quicksort(sorted) // a sorted input stays its own fingerprint across hits
	dst := make([]int64, len(xs))
	hist := make([]int, 64)
	bucket := func(v int64) int { return int(uint64(v) % 64) }
	gr := gen.ErdosRenyi(64, 3, false, 7)
	// BFS's kernel allocates its result (Kernel.Allocates); what it
	// costs with no helper in the way is the row's baseline.
	bfsDirect := func(f Front) float64 {
		var a kernel.Args // reused, so the interface call's escape is paid once
		return testing.AllocsPerRun(100, func() {
			a = kernel.Args{G: gr}
			_ = f.CallBudget("t", kernelBFS, &a, 0)
		})
	}

	rows := []struct {
		name   string
		cached bool
		extra  float64 // allocations the kernel itself makes per call
		call   func() error
	}{
		{"server/sort", true, 0, func() error { return Sort(s, "t", sorted) }},
		{"server/select", true, 0, func() error { _, err := Select(s, "t", xs, 7); return err }},
		{"server/histogram", false, 0, func() error { return Histogram(s, "t", hist, xs, bucket) }},
		{"server/scan", true, 0, func() error { return Scan(s, "t", dst, xs) }},
		{"server/sum", true, 0, func() error { _, err := Sum(s, "t", xs); return err }},
		{"server/bfs", false, bfsDirect(s), func() error { _, err := BFS(s, "t", gr, 0); return err }},
		{"sharded/sort", true, 0, func() error { return Sort(g, "t", sorted) }},
		{"sharded/select", true, 0, func() error { _, err := Select(g, "t", xs, 7); return err }},
		{"sharded/histogram", false, 0, func() error { return Histogram(g, "t", hist, xs, bucket) }},
		{"sharded/scan", true, 0, func() error { return Scan(g, "t", dst, xs) }},
		{"sharded/sum", true, 0, func() error { _, err := Sum(g, "t", xs); return err }},
		{"sharded/bfs", false, bfsDirect(g), func() error { _, err := BFS(g, "t", gr, 0); return err }},
	}
	hits := func() int64 { return s.Stats().Aggregate.CacheHits + g.Stats().Aggregate.CacheHits }
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			for i := 0; i < 64; i++ {
				if err := row.call(); err != nil {
					t.Fatal(err)
				}
			}
			hitsBefore := hits()
			// A GC between runs can repopulate sync.Pools on the measured
			// iteration; retry before declaring a leak.
			var allocs float64
			for attempt := 0; attempt < 3; attempt++ {
				allocs = testing.AllocsPerRun(100, func() {
					if err := row.call(); err != nil {
						t.Fatal(err)
					}
				})
				if allocs <= row.extra {
					break
				}
			}
			if allocs > row.extra {
				t.Errorf("helper path allocates %.2f allocs/op; want %.2f", allocs, row.extra)
			}
			if row.cached && hits() == hitsBefore {
				t.Fatal("measured loop never hit the cache")
			}
		})
	}
}

// TestBumpGenerationInvalidates: a bump forces recompute; the fresh
// result repopulates the cache under the new generation.
func TestBumpGenerationInvalidates(t *testing.T) {
	s := NewSharded(ShardedConfig{Shards: 1, Config: Config{Cache: rescache.New(rescache.Config{})}})
	defer s.Close()
	xs := []int64{1, 2, 3}
	for i := 0; i < 2; i++ {
		if _, err := Sum(s, "t", xs); err != nil {
			t.Fatal(err)
		}
	}
	if g := s.BumpGeneration("t"); g != 1 {
		t.Fatalf("generation = %d, want 1", g)
	}
	xs[0] = 10 // the out-of-band change the bump announced
	for i := 0; i < 2; i++ {
		got, err := Sum(s, "t", xs)
		if err != nil || got != 15 {
			t.Fatalf("post-bump Sum %d = %d, %v (want 15)", i, got, err)
		}
	}
	st := s.Stats().Aggregate
	if st.CacheHits != 2 || st.CacheMisses != 2 {
		t.Fatalf("stats = %+v, want 2 hits / 2 misses", st)
	}
}

// TestCallDelta pins the incremental route through the server: a sort
// record stays sorted under appended chunks, and adapterless kernels
// refuse loudly.
func TestCallDelta(t *testing.T) {
	s := NewSharded(ShardedConfig{Shards: 1})
	defer s.Close()
	a := kernel.Args{Xs: []int64{5, 1, 3}}
	if err := s.CallBudget("t", kernel.MustLookup("sort"), &a, 0); err != nil {
		t.Fatalf("base sort: %v", err)
	}
	d := kernel.Delta{Append: []int64{4, 0, 9}}
	if err := s.CallDeltaBudget("t", kernel.MustLookup("sort"), &a, &d, 0); err != nil {
		t.Fatalf("CallDelta: %v", err)
	}
	want := []int64{0, 1, 3, 4, 5, 9}
	if len(a.Xs) != len(want) {
		t.Fatalf("Xs = %v, want %v", a.Xs, want)
	}
	for i := range want {
		if a.Xs[i] != want[i] {
			t.Fatalf("Xs = %v, want %v", a.Xs, want)
		}
	}
	st := s.Stats().Aggregate
	if st.Accepted != 2 || st.Completed != 2 {
		t.Fatalf("stats = %+v, want delta requests in Accepted/Completed", st)
	}

	b := kernel.Args{Xs: []int64{1, 2}, K: 1}
	if err := s.CallDeltaBudget("t", kernel.MustLookup("select"), &b, &d, 0); err == nil {
		t.Fatal("CallDelta on adapterless kernel returned nil error")
	}
}

// TestShardedCacheShared: every shard serves hits from the one shared
// cache, and CallDelta routes like Call.
func TestShardedCacheShared(t *testing.T) {
	g := NewSharded(ShardedConfig{
		Config: Config{Cache: rescache.New(rescache.Config{})},
		Shards: 2,
	})
	defer g.Close()
	for _, tenant := range []string{"alice", "bob", "carol"} {
		xs := []int64{1, 2, 3, 4}
		for i := 0; i < 2; i++ {
			got, err := Sum(g, tenant, xs)
			if err != nil || got != 10 {
				t.Fatalf("%s Sum %d = %d, %v", tenant, i, got, err)
			}
		}
	}
	st := g.Stats()
	if st.Aggregate.CacheHits != 3 || st.Aggregate.CacheMisses != 3 {
		t.Fatalf("aggregate = %+v, want 3 hits / 3 misses", st.Aggregate)
	}
	if g.BumpGeneration("alice") != 1 {
		t.Fatal("sharded bump did not advance the shared generation")
	}

	a := kernel.Args{Xs: []int64{2, 1}}
	if err := g.CallBudget("alice", kernel.MustLookup("sort"), &a, 0); err != nil {
		t.Fatalf("sharded sort: %v", err)
	}
	if err := g.CallDeltaBudget("alice", kernel.MustLookup("sort"), &a, &kernel.Delta{Append: []int64{0}}, 0); err != nil {
		t.Fatalf("sharded CallDelta: %v", err)
	}
	if a.Xs[0] != 0 || a.Xs[1] != 1 || a.Xs[2] != 2 {
		t.Fatalf("Xs = %v, want [0 1 2]", a.Xs)
	}
}

// TestMigratedRequestStaleInsertDropped is the deterministic half of
// the migration-consistency story: a request looked up under
// generation 0 is migrated to a thief shard while queued, the
// tenant's generation is bumped mid-migration, and the thief executes
// it afterwards. The result reaches the caller (with the post-bump
// version), but its insert token is stale and the store is dropped —
// the cache never holds an entry whose token predates the bump.
func TestMigratedRequestStaleInsertDropped(t *testing.T) {
	cachetestVersion.Store(0)
	cache := rescache.New(rescache.Config{})
	home := newShard(t, Config{Cache: cache, Workers: 1})
	thief := newShard(t, Config{Cache: cache, Workers: 1})

	// Stall home's dispatcher so the victim queues.
	bucket, release := deadlineGate(t)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		hist := make([]int, 1)
		_ = Histogram(home, "blocker", hist, []int64{1}, bucket)
	}()
	waitFor(t, "blocker batch started", func() bool { return home.Stats().Batches > 0 })

	payload := []int64{7, 7, 7}
	var out int64
	var callErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		a := kernel.Args{Xs: payload, Seed: 42}
		callErr = home.CallBudget("mig", kernelCachetest, &a, 0)
		out = a.Out
	}()
	waitFor(t, "victim queued", func() bool { return home.queueDepth() >= 1 })

	buf := home.migrateOut(nil, 1)
	if len(buf) != 1 {
		t.Fatalf("migrated %d requests, want 1", len(buf))
	}
	cachetestVersion.Store(1)
	cache.Bump("mig") // mid-migration: the victim's token is now stale
	thief.migrateIn(buf)
	release()
	wg.Wait()

	if callErr != nil {
		t.Fatalf("migrated call: %v", callErr)
	}
	if out != 1 {
		t.Fatalf("migrated call observed version %d, want 1 (executed after the bump)", out)
	}
	if st := cache.Stats(); st.Inserts != 0 {
		t.Fatalf("stale-token insert was stored: %+v", st)
	}

	// The path heals: the next identical call misses, computes, and
	// stores under the current generation; the one after hits.
	a := kernel.Args{Xs: payload, Seed: 42}
	if err := home.CallBudget("mig", kernelCachetest, &a, 0); err != nil || a.Out != 1 {
		t.Fatalf("post-bump call = %d, %v", a.Out, err)
	}
	if st := cache.Stats(); st.Inserts != 1 || st.Hits != 0 {
		t.Fatalf("post-bump miss not stored: %+v", st)
	}
	a = kernel.Args{Xs: payload, Seed: 42}
	if err := home.CallBudget("mig", kernelCachetest, &a, 0); err != nil || a.Out != 1 {
		t.Fatalf("post-bump hit = %d, %v", a.Out, err)
	}
	if st := cache.Stats(); st.Hits != 1 {
		t.Fatalf("healed entry never hit: %+v", st)
	}
}

// TestMigrationNeverServesStaleCache is the cache half of the
// migration race suite: a skewed flood keeps one tenant's requests
// migrating onto thief shards while a writer advances the world
// version and bumps the tenant's generation mid-flight. The invariant
// every read asserts: a call that starts after epoch e's bump
// completed must observe version >= e — a smaller value is a stale
// entry surviving its invalidation (for example, a thief shard with
// its own generation view, or an insert racing the bump). The epoch
// counter is published only after Bump returns, so the assertion is
// race-free by construction while the calls themselves race freely.
func TestMigrationNeverServesStaleCache(t *testing.T) {
	cachetestVersion.Store(0)
	g := NewSharded(ShardedConfig{
		Config:            Config{Cache: rescache.New(rescache.Config{}), Workers: 1, MaxQueue: 4096},
		Shards:            4,
		MigrateHysteresis: 1,
	})
	defer g.Close()
	hot := tenantsHomedOn(g, 0, 1)[0]

	const (
		epochs  = 30
		readers = 8
	)
	var (
		currentEpoch atomic.Int64
		stop         atomic.Bool
		failure      atomic.Value // string
		wg           sync.WaitGroup
	)
	payload := []int64{3, 1, 4, 1, 5, 9, 2, 6}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				e := currentEpoch.Load()
				// A few distinct fingerprints per epoch so most calls hit.
				a := kernel.Args{Xs: payload, Seed: uint64(i % 3)}
				if err := g.CallBudget(hot, kernelCachetest, &a, 0); err != nil {
					if errors.Is(err, ErrRejected) {
						continue
					}
					failure.Store(fmt.Sprintf("reader %d: %v", r, err))
					return
				}
				if a.Out < e {
					failure.Store(fmt.Sprintf(
						"reader %d observed version %d after epoch %d's bump completed (stale cache entry)",
						r, a.Out, e))
					return
				}
			}
		}(r)
	}

	for e := int64(1); e <= epochs; e++ {
		cachetestVersion.Store(e)
		g.BumpGeneration(hot) // sweeps every pre-e entry before e is published
		currentEpoch.Store(e)
		time.Sleep(2 * time.Millisecond)
		if failure.Load() != nil {
			break
		}
	}
	stop.Store(true)
	wg.Wait()
	if f := failure.Load(); f != nil {
		t.Fatal(f)
	}

	cst := g.Cache().Stats()
	if cst.Hits == 0 || cst.Invalidations == 0 {
		t.Fatalf("race never exercised the cache: %+v", cst)
	}
	if mig := g.Stats().Migrated; mig == 0 {
		t.Logf("note: no migrations occurred this run (cache safety still verified); cache stats %+v", cst)
	}
}
