package serve

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/exec"
	"repro/internal/kernel"
	"repro/internal/rescache"
)

// TestFoldedTenantAccountingBalances pins the per-entry invariant
// behind merged TenantStats: with maxTenants folding the names past
// the bound into "(other)", every surviving entry still has
// Accepted == Completed once traffic drains, because completions are
// credited to the entry that counted the acceptance.
func TestFoldedTenantAccountingBalances(t *testing.T) {
	s := NewSharded(ShardedConfig{Shards: 1, Config: Config{Workers: 2}})
	defer s.Close()

	tenants := make([]string, maxTenants+6)
	for i := range tenants {
		tenants[i] = fmt.Sprintf("t%d", i)
	}
	const perTenant = 5
	var wg sync.WaitGroup
	for _, name := range tenants {
		wg.Add(1)
		go func(name string) {
			defer wg.Done()
			for i := 0; i < perTenant; i++ {
				if _, err := Sum(s, name, []int64{1, 2, 3}); err != nil && !errors.Is(err, ErrRejected) {
					t.Errorf("%s: %v", name, err)
				}
			}
		}(name)
	}
	wg.Wait()

	var accepted, completed int64
	for _, ts := range s.TenantStats() {
		if ts.Accepted != ts.Completed {
			t.Errorf("tenant %q: Accepted %d != Completed %d", ts.Name, ts.Accepted, ts.Completed)
		}
		accepted += ts.Accepted
		completed += ts.Completed
	}
	st := s.Stats().Aggregate
	if st.Tenants > maxTenants+1 {
		t.Errorf("tenant table has %d entries; want <= maxTenants+1 = %d", st.Tenants, maxTenants+1)
	}
	if accepted != st.Accepted || completed != st.Completed {
		t.Errorf("per-tenant sums (%d, %d) != server totals (%d, %d)",
			accepted, completed, st.Accepted, st.Completed)
	}
}

// TestMigrateInDoesNotResurrectFoldedTenant is the white-box half of
// the fold/migration interaction: a request folded into "(other)" at
// its home shard keeps the folded name across migration, so the thief
// shard queues it under its own overflow entry instead of creating a
// per-name entry the home shard's maxTenants bound already refused —
// and its completion is credited to the home shard's overflow entry,
// where the acceptance was counted.
func TestMigrateInDoesNotResurrectFoldedTenant(t *testing.T) {
	// home is built but its dispatcher never starts: what it admits
	// stays queued, so the test plays the balancer's role and hands the
	// backlog straight to the thief shard.
	home := build(Config{executor: exec.Default()})
	thief := newShard(t, Config{})

	// maxTenants resident names fill home's tenant table, so the next
	// name folds. The residents hold entries but queue nothing, so the
	// newcomer is all the thief receives and its table stays empty: a
	// resurrected name would get an entry there, not fold again.
	home.mu.Lock()
	for i := 0; i < maxTenants; i++ {
		home.tenantLocked(fmt.Sprintf("resident-%d", i))
	}
	home.mu.Unlock()
	r := home.getRequest(kernelSum, "newcomer", &kernel.Args{Xs: []int64{2, 3, 5}})
	if err := home.admit(r); err != nil {
		t.Fatalf("admit %q: %v", r.tenantName, err)
	}
	if r.tenantName != OverflowTenant {
		t.Fatalf("admission stamped name %q; want %q", r.tenantName, OverflowTenant)
	}

	thief.migrateIn(home.migrateOut(nil, 1))
	select {
	case <-r.done:
	case <-time.After(5 * time.Second):
		t.Fatalf("migrated request of %q never completed", r.tenantName)
	}
	if r.err != nil || r.args.Out != 10 {
		t.Fatalf("migrated result = %d, %v; want 10, nil", r.args.Out, r.err)
	}

	thief.mu.Lock()
	_, resurrected := thief.tenants["newcomer"]
	thief.mu.Unlock()
	if resurrected {
		t.Error("thief shard created a per-name entry for a folded tenant")
	}
	for _, ts := range home.TenantStats() {
		if ts.Name == OverflowTenant && (ts.Accepted != 1 || ts.Completed != 1) {
			t.Errorf("home overflow entry = %+v; want Accepted 1, Completed 1", ts)
		}
	}
	for _, ts := range thief.TenantStats() {
		if ts.Completed != 0 {
			t.Errorf("thief entry %q credited %d completions; accounting belongs to the home entry", ts.Name, ts.Completed)
		}
	}
	home.putRequest(r)
}

// TestShardedMigrationWithTenantFold is the end-to-end half, and the
// ledger test of every count Stats derives: heavy skew (every tenant
// homed on shard 0) with more names than the maxTenants bound,
// migration on, a shared result cache, a small queue bound and an SLO.
// Folded names must not multiply across shards, and the aggregate must
// agree with what the callers saw (successes, rejections and deadline
// errors), with the cache's own hit count, with the balancer's
// MigratedOut and with the merged per-tenant stats.
func TestShardedMigrationWithTenantFold(t *testing.T) {
	cache := rescache.New(rescache.Config{})
	g := NewSharded(ShardedConfig{
		Config:            Config{MaxQueue: 4, SLO: time.Millisecond, Cache: cache},
		Shards:            2,
		ShardProcs:        1,
		MigrateHysteresis: 1,
	})
	defer g.Close()

	names := tenantsHomedOn(g, 0, maxTenants+10)
	var ok, rejected, late atomic.Int64
	wave := func(w int) {
		var wg sync.WaitGroup
		wg.Add(1)
		go func() { // Stats sums the tenant entries while callers add to them
			defer wg.Done()
			for i := 0; i < 100; i++ {
				g.Stats()
				runtime.Gosched()
			}
		}()
		for _, name := range names {
			wg.Add(1)
			go func(name string) {
				defer wg.Done()
				for i := 0; i < 8; i++ {
					// Each input is sent twice per wave, so the second
					// sending can be a cache hit.
					got, err := Sum(g, name, []int64{4, 5, int64(w*4 + i/2)})
					switch {
					case err == nil:
						if want := int64(9 + w*4 + i/2); got != want {
							t.Errorf("%s: sum = %d, want %d", name, got, want)
						}
						ok.Add(1)
					case errors.Is(err, ErrRejected):
						rejected.Add(1)
						runtime.Gosched()
					case errors.Is(err, ErrDeadlineExceeded):
						late.Add(1)
						runtime.Gosched()
					default:
						t.Errorf("%s: %v", name, err)
						return
					}
				}
			}(name)
		}
		wg.Wait()
	}
	deadline := time.Now().Add(30 * time.Second)
	for w := 0; w == 0 || g.Stats().Migrated == 0; w++ {
		if time.Now().After(deadline) {
			t.Fatalf("no migration after %d skewed waves", w)
		}
		wave(w)
	}

	st := g.Stats()
	a := st.Aggregate
	t.Logf("callers saw %d ok, %d rejected, %d late; %+v, migrated %d", ok.Load(), rejected.Load(), late.Load(), a, st.Migrated)
	if a.Completed+a.CacheHits != ok.Load() || a.Rejected != rejected.Load() || a.DeadlineRejected+a.Expired != late.Load() {
		t.Errorf("completed+cachehits=%d rejected=%d deadline+expired=%d; callers saw %d ok, %d rejected, %d late",
			a.Completed+a.CacheHits, a.Rejected, a.DeadlineRejected+a.Expired, ok.Load(), rejected.Load(), late.Load())
	}
	if a.Accepted != a.Completed+a.Expired {
		t.Errorf("accepted=%d, want completed+expired=%d", a.Accepted, a.Completed+a.Expired)
	}
	if hits := int64(cache.Stats().Hits); a.CacheHits != hits {
		t.Errorf("cachehits=%d, the cache counted %d hits", a.CacheHits, hits)
	}
	// Every completion rode a batch, and a batch carries 1..maxBatch
	// requests.
	if a.BatchedRequests != a.Completed || a.Batches > a.BatchedRequests || a.BatchedRequests > a.Batches*maxBatch {
		t.Errorf("batches=%d batched=%d completed=%d", a.Batches, a.BatchedRequests, a.Completed)
	}
	if st.Migrated != a.MigratedOut {
		t.Errorf("migrated=%d, but shards migrated out %d", st.Migrated, a.MigratedOut)
	}

	var sum TenantStats
	merged := g.TenantStats()
	for _, ts := range merged {
		if ts.Accepted != ts.Completed+ts.Expired {
			t.Errorf("tenant %q: Accepted %d != Completed %d + Expired %d", ts.Name, ts.Accepted, ts.Completed, ts.Expired)
		}
		sum.Accepted += ts.Accepted
		sum.Rejected += ts.Rejected
		sum.Completed += ts.Completed
		sum.DeadlineRejected += ts.DeadlineRejected
		sum.Expired += ts.Expired
		sum.CacheHits += ts.CacheHits
	}
	if sum != (TenantStats{Accepted: a.Accepted, Rejected: a.Rejected, Completed: a.Completed,
		DeadlineRejected: a.DeadlineRejected, Expired: a.Expired, CacheHits: a.CacheHits}) {
		t.Errorf("per-tenant sums %+v != aggregate %+v", sum, a)
	}
	// Shard 0 admits at most maxTenants real names plus "(other)";
	// shard 1 sees only migrated requests carrying those same stamped
	// names. Nothing can widen the name set.
	if len(merged) > maxTenants+1 {
		t.Errorf("merged stats name %d tenants; want <= %d", len(merged), maxTenants+1)
	}
	if a.Tenants != len(merged) {
		t.Errorf("Stats counts %d tenants; the merged stats name %d", a.Tenants, len(merged))
	}
	for i, s := range g.shards {
		s.mu.Lock()
		n := len(s.tenants)
		s.mu.Unlock()
		if n > maxTenants+1 {
			t.Errorf("shard %d tenant table has %d entries; want <= %d", i, n, maxTenants+1)
		}
	}
}
