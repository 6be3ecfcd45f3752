package serve

import (
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/kernel"
)

// TestFoldedTenantAccountingBalances pins the per-entry invariant
// behind merged TenantStats: with MaxTenants folding most names into
// "(other)", every surviving entry still has Accepted == Completed
// once traffic drains, because completions are credited to the entry
// that counted the acceptance.
func TestFoldedTenantAccountingBalances(t *testing.T) {
	s := New(Config{MaxTenants: 2, Workers: 2})
	defer s.Close()

	tenants := []string{"a", "b", "c", "d", "e", "f", "g", "h"}
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
	st := s.Stats()
	if st.Tenants > 3 {
		t.Errorf("tenant table has %d entries; want <= MaxTenants+1 = 3", st.Tenants)
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
// per-name entry the home shard's MaxTenants bound already refused —
// and its completion is credited to the home shard's overflow entry,
// where the acceptance was counted.
func TestMigrateInDoesNotResurrectFoldedTenant(t *testing.T) {
	// home is built but its dispatcher never starts: what it admits
	// stays queued, so the test plays the balancer's role and hands the
	// backlog straight to the thief shard.
	home := build(Config{MaxTenants: 1})
	thief := New(Config{})
	defer thief.Close()

	// The first name fills home's tenant table, so the next one folds.
	resident := home.getRequest(kernelSum, "resident", &kernel.Args{Xs: []int64{1}})
	r := home.getRequest(kernelSum, "newcomer", &kernel.Args{Xs: []int64{2, 3, 5}})
	for _, q := range []*request{resident, r} {
		if err := home.admit(q); err != nil {
			t.Fatalf("admit %q: %v", q.tenantName, err)
		}
	}
	if r.tenantName != OverflowTenant {
		t.Fatalf("admission stamped name %q; want %q", r.tenantName, OverflowTenant)
	}

	thief.migrateIn(home.migrateOut(nil, 2))
	for _, q := range []*request{resident, r} {
		select {
		case <-q.done:
		case <-time.After(5 * time.Second):
			t.Fatalf("migrated request of %q never completed", q.tenantName)
		}
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
		if ts.Completed != 0 && ts.Name != "resident" {
			t.Errorf("thief entry %q credited %d completions; accounting belongs to the home entry", ts.Name, ts.Completed)
		}
	}
	home.putRequest(resident)
	home.putRequest(r)
}

// TestShardedMigrationWithTenantFold is the end-to-end half: heavy
// skew (every tenant homed on shard 0) with a tight MaxTenants bound
// and migration on. Folded names must not multiply across shards and
// the merged per-tenant stats must balance exactly.
func TestShardedMigrationWithTenantFold(t *testing.T) {
	g := NewSharded(ShardedConfig{
		Config:            Config{MaxTenants: 2, MaxQueue: 1 << 20},
		Shards:            2,
		ShardProcs:        1,
		MigrateHysteresis: 1,
	})
	defer g.Close()

	names := tenantsHomedOn(g, 0, 12)
	var wg sync.WaitGroup
	var sent int64
	var mu sync.Mutex
	for _, name := range names {
		wg.Add(1)
		go func(name string) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				if _, err := Sum(g, name, []int64{4, 5, 6}); err != nil {
					t.Errorf("%s: %v", name, err)
					return
				}
				mu.Lock()
				sent++
				mu.Unlock()
			}
		}(name)
	}
	wg.Wait()

	var accepted, completed int64
	merged := g.TenantStats()
	for _, ts := range merged {
		if ts.Accepted != ts.Completed {
			t.Errorf("tenant %q: Accepted %d != Completed %d", ts.Name, ts.Accepted, ts.Completed)
		}
		accepted += ts.Accepted
		completed += ts.Completed
	}
	if completed != sent {
		t.Errorf("completed %d requests, sent %d", completed, sent)
	}
	// Shard 0 admits at most MaxTenants real names plus "(other)";
	// shard 1 sees only migrated requests carrying those same stamped
	// names. Nothing can widen the name set.
	if len(merged) > 3 {
		t.Errorf("merged stats name %d tenants; want <= 3: %+v", len(merged), merged)
	}
	for i, s := range g.shards {
		s.mu.Lock()
		n := len(s.tenants)
		s.mu.Unlock()
		if n > 3 {
			t.Errorf("shard %d tenant table has %d entries; want <= 3", i, n)
		}
	}
}
