package serve

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/exec"
	"repro/internal/kernel"
)

// newShard returns the one shard of a one-shard Sharded that closes
// when t ends: a running shard with no balancer hooks, for the
// white-box tests that read its internals or drive admit, migrateOut
// and migrateIn by hand.
func newShard(t *testing.T, cfg Config) *shard {
	g := NewSharded(ShardedConfig{Shards: 1, Config: cfg})
	t.Cleanup(g.Close)
	return g.shards[0]
}

// tenantsHomedOn generates count distinct tenant names whose affinity
// shard is shard — how the tests construct deliberately skewed traffic
// without depending on what the hash does to any particular name.
func tenantsHomedOn(g *Sharded, shard, count int) []string {
	names := make([]string, 0, count)
	for i := 0; len(names) < count; i++ {
		name := fmt.Sprintf("tenant-%d", i)
		if g.HomeShard(name) == shard {
			names = append(names, name)
		}
	}
	return names
}

// TestShardedMigrationExactlyOnce is the migration correctness test:
// every tenant is homed on shard 0 while shards 1..3 idle, so the
// diffusive balancer must move queued requests off the hot shard.
// Under the race detector it pins that (a) every request completes
// exactly once (aggregate accepted == completed == sent, with each
// result matching its oracle, so nothing was lost or run twice),
// (b) rejections are the only other terminal state and there are
// none here, and (c) per-tenant accounting merged across shards
// balances even though completion happened off-home.
func TestShardedMigrationExactlyOnce(t *testing.T) {
	g := NewSharded(ShardedConfig{
		Shards:            4,
		ShardProcs:        1,
		MigrateHysteresis: 2,
	})
	defer g.Close()

	tenants := tenantsHomedOn(g, 0, 4)
	const clients = 8
	const perWave = 100
	var sent, completed atomic.Int64

	wave := func() {
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				tenant := tenants[c%len(tenants)]
				for i := 0; i < perWave; i++ {
					xs := randInts(2048, uint64(c*1000+i))
					sent.Add(1)
					if i%2 == 0 {
						want := sortedOracle(xs)
						if err := Sort(g, tenant, xs); err != nil {
							t.Errorf("sort: %v", err)
							return
						}
						for j := range want {
							if xs[j] != want[j] {
								t.Errorf("migrated sort corrupted at %d", j)
								return
							}
						}
					} else {
						var want int64
						for _, v := range xs {
							want += v
						}
						got, err := Sum(g, tenant, xs)
						if err != nil {
							t.Errorf("sum: %v", err)
							return
						}
						if got != want {
							t.Errorf("sum = %d, want %d", got, want)
							return
						}
					}
					completed.Add(1)
				}
			}(c)
		}
		wg.Wait()
	}

	// Migration needs a real backlog divergence; one wave almost
	// always produces it, but the balancer is load-driven, so drive
	// more skewed waves until it has fired rather than guessing at
	// timing.
	deadline := time.Now().Add(30 * time.Second)
	for waveN := 0; g.Stats().Migrated == 0; waveN++ {
		if time.Now().After(deadline) {
			t.Fatalf("no migration after %d skewed waves", waveN)
		}
		wave()
	}

	st := g.Stats()
	if st.Migrated == 0 || st.Migrations == 0 {
		t.Fatalf("migration counters empty: %+v", st)
	}
	if st.Aggregate.MigratedIn != st.Migrated || st.Aggregate.MigratedOut != st.Migrated {
		t.Fatalf("per-shard migration flow (in=%d out=%d) != balancer count %d",
			st.Aggregate.MigratedIn, st.Aggregate.MigratedOut, st.Migrated)
	}
	// Exactly once: the server completed precisely the accepted
	// requests, which are precisely the ones the clients sent and saw
	// complete.
	if st.Aggregate.Rejected != 0 {
		t.Fatalf("unexpected rejections: %+v", st.Aggregate)
	}
	if st.Aggregate.Accepted != sent.Load() || st.Aggregate.Completed != sent.Load() {
		t.Fatalf("accepted=%d completed=%d, want both %d",
			st.Aggregate.Accepted, st.Aggregate.Completed, sent.Load())
	}
	if completed.Load() != sent.Load() {
		t.Fatalf("clients saw %d completions of %d sent", completed.Load(), sent.Load())
	}
	// Off-home completions exist (that is what migration is), and the
	// merged per-tenant view still balances.
	var offHome int64
	for i := 1; i < g.Shards(); i++ {
		offHome += st.PerShard[i].Completed
	}
	if offHome == 0 {
		t.Fatalf("migration reported but no off-home completions: %+v", st.PerShard)
	}
	var tenantTotal int64
	for _, ts := range g.TenantStats() {
		if ts.Accepted != ts.Completed {
			t.Fatalf("tenant %q accepted=%d completed=%d after migration",
				ts.Name, ts.Accepted, ts.Completed)
		}
		tenantTotal += ts.Completed
	}
	if tenantTotal != sent.Load() {
		t.Fatalf("per-tenant completions sum to %d, want %d", tenantTotal, sent.Load())
	}
}

// TestShardedAffinityBalanced pins the other half of the diffusion
// contract: balanced traffic never diverges past the hysteresis
// threshold, so nothing migrates and every tenant's requests complete
// entirely on its home shard.
func TestShardedAffinityBalanced(t *testing.T) {
	g := NewSharded(ShardedConfig{Shards: 4, ShardProcs: 1})
	defer g.Close()

	// One tenant per shard, one synchronous client each: queues never
	// deepen past one request per shard.
	var tenants []string
	for s := 0; s < 4; s++ {
		tenants = append(tenants, tenantsHomedOn(g, s, 1)[0])
	}
	const each = 50
	var wg sync.WaitGroup
	for c, tenant := range tenants {
		wg.Add(1)
		go func(c int, tenant string) {
			defer wg.Done()
			xs := randInts(1024, uint64(c))
			for i := 0; i < each; i++ {
				if _, err := Sum(g, tenant, xs); err != nil {
					t.Errorf("sum: %v", err)
					return
				}
			}
		}(c, tenant)
	}
	wg.Wait()

	st := g.Stats()
	if st.Migrated != 0 || st.Migrations != 0 {
		t.Fatalf("balanced traffic migrated %d requests over %d events",
			st.Migrated, st.Migrations)
	}
	for i, ss := range st.PerShard {
		if ss.Completed != each {
			t.Fatalf("shard %d completed %d, want %d (affinity broken)", i, ss.Completed, each)
		}
	}
}

// TestShardedFairShareUnderMigration floods one hot tenant while a
// light tenant homed on the same shard issues occasional requests:
// per-shard round-robin still serves the light tenant promptly, and
// its accounting stays balanced even if some of its requests ride a
// migration slice to another shard.
func TestShardedFairShareUnderMigration(t *testing.T) {
	g := NewSharded(ShardedConfig{
		Shards:            2,
		ShardProcs:        1,
		MigrateHysteresis: 2,
	})
	defer g.Close()

	names := tenantsHomedOn(g, 0, 2)
	hot, light := names[0], names[1]

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			xs := randInts(4096, uint64(c))
			for {
				select {
				case <-stop:
					return
				default:
				}
				if err := Sort(g, hot, xs); err != nil && !errors.Is(err, ErrRejected) {
					t.Errorf("hot: %v", err)
					return
				}
			}
		}(c)
	}

	xs := randInts(1024, 99)
	for i := 0; i < 30; i++ {
		hist := make([]int, 16)
		if err := Histogram(g, light, hist, xs, func(v int64) int { return int(uint64(v) % 16) }); err != nil {
			t.Fatalf("light request %d failed under hot flood: %v", i, err)
		}
	}
	close(stop)
	wg.Wait()

	for _, ts := range g.TenantStats() {
		if ts.Accepted != ts.Completed+ts.Rejected {
			t.Fatalf("tenant %q accounting unbalanced: %+v", ts.Name, ts)
		}
		if ts.Name == light && ts.Rejected != 0 {
			t.Fatalf("light tenant saw %d rejections", ts.Rejected)
		}
	}
}

// TestMigrateInClosedRunsInline pins the shutdown race: a migration
// slice landing on a shard that has already closed is executed inline
// on the migrating goroutine, so an admitted request is never lost
// and its waiter never hangs.
func TestMigrateInClosedRunsInline(t *testing.T) {
	// home is built but its dispatcher never starts, so the request it
	// admits stays queued until migrateOut pops it — the balancer's view
	// of a backlog, with no dispatcher racing the pop.
	home := build(Config{executor: exec.Default()})
	s := newShard(t, Config{})
	r := home.getRequest(kernelSum, "t", &kernel.Args{Xs: []int64{1, 2, 3, 4}})
	if err := home.admit(r); err != nil {
		t.Fatalf("admit: %v", err)
	}
	buf := home.migrateOut(nil, 1)
	s.Close()

	s.migrateIn(buf)
	select {
	case <-r.done:
	case <-time.After(5 * time.Second):
		t.Fatal("request migrated into a closed shard never completed")
	}
	if r.err != nil || r.args.Out != 10 {
		t.Fatalf("inline-run result = %d, %v; want 10, nil", r.args.Out, r.err)
	}
	st := s.Stats()
	if st.MigratedIn != 1 || st.Completed != 1 {
		t.Fatalf("inline-run accounting: %+v", st)
	}
	home.putRequest(r)
}

// TestShardedClose pins drain-then-reject semantics and idempotence
// across all shards.
func TestShardedClose(t *testing.T) {
	g := NewSharded(ShardedConfig{Shards: 2, ShardProcs: 1})
	xs := randInts(512, 1)
	if _, err := Sum(g, "a", xs); err != nil {
		t.Fatalf("sum: %v", err)
	}
	g.Close()
	g.Close() // idempotent
	if _, err := Sum(g, "a", xs); !errors.Is(err, ErrClosed) {
		t.Fatalf("Sum after Close = %v, want ErrClosed", err)
	}
	if err := Sort(g, "b", xs); !errors.Is(err, ErrClosed) {
		t.Fatalf("Sort after Close = %v, want ErrClosed", err)
	}
}

// TestShardedMixedOps smoke-covers every request type through the
// sharded front door against oracles, across tenants homed on
// different shards.
func TestShardedMixedOps(t *testing.T) {
	g := NewSharded(ShardedConfig{Shards: 2, ShardProcs: 2})
	defer g.Close()

	for tn := 0; tn < 4; tn++ {
		tenant := fmt.Sprintf("t%d", tn)
		xs := randInts(3000, uint64(tn))

		want := sortedOracle(xs)
		sorted := append([]int64(nil), xs...)
		if err := Sort(g, tenant, sorted); err != nil {
			t.Fatalf("sort: %v", err)
		}
		for j := range want {
			if sorted[j] != want[j] {
				t.Fatalf("sort mismatch at %d", j)
			}
		}

		k := 1500
		if got, err := Select(g, tenant, xs, k); err != nil || got != want[k] {
			t.Fatalf("select = %d, %v; want %d", got, err, want[k])
		}

		hist := make([]int, 32)
		bucket := func(v int64) int { return int(uint64(v) % 32) }
		if err := Histogram(g, tenant, hist, xs, bucket); err != nil {
			t.Fatalf("histogram: %v", err)
		}
		wantHist := make([]int, 32)
		for _, v := range xs {
			wantHist[bucket(v)]++
		}
		for j := range wantHist {
			if hist[j] != wantHist[j] {
				t.Fatalf("hist[%d] = %d, want %d", j, hist[j], wantHist[j])
			}
		}

		dst := make([]int64, len(xs))
		if err := Scan(g, tenant, dst, xs); err != nil {
			t.Fatalf("scan: %v", err)
		}
		var run int64
		for j, v := range xs {
			run += v
			if dst[j] != run {
				t.Fatalf("scan[%d] = %d, want %d", j, dst[j], run)
			}
		}

		var wantSum int64
		for _, v := range xs {
			wantSum += v
		}
		if got, err := Sum(g, tenant, xs); err != nil || got != wantSum {
			t.Fatalf("sum = %d, %v; want %d", got, err, wantSum)
		}
	}

	st := g.Stats()
	if st.Aggregate.Accepted != st.Aggregate.Completed {
		t.Fatalf("accepted=%d completed=%d", st.Aggregate.Accepted, st.Aggregate.Completed)
	}
	if st.Aggregate.Tenants != 4 {
		t.Fatalf("distinct tenants = %d, want 4", st.Aggregate.Tenants)
	}
}
