package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/gen"
	"repro/internal/perf"
	"repro/internal/serve"
)

// Fifth batch of extension experiments: sharding the serving runtime
// and rebalancing it under tenant skew.

func init() {
	Experiments = append(Experiments,
		Experiment{"E24", "Table 14", "Sharded serving under tenant skew: 1 shard vs N shards vs N shards + migration", E24ShardedServe},
	)
}

// skewedTenants returns count tenant names all homed on shard 0 of g
// — the worst case for affinity routing, since every request lands on
// one shard while the others idle.
func skewedTenants(g *serve.Sharded, count int) []string {
	names := make([]string, 0, count)
	for i := 0; len(names) < count; i++ {
		name := fmt.Sprintf("tenant-%d", i)
		if g.HomeShard(name) == 0 {
			names = append(names, name)
		}
	}
	return names
}

// E24ShardedServe regenerates Table 14: skewed multi-tenant traffic
// (every tenant hashes to the same home shard) served three ways at
// equal total worker count — one unsharded server (the PR 5 runtime:
// one submit mutex, one dispatcher, one executor), four shards with
// migration disabled (contention splits four ways but the skew
// strands three shards idle), and four shards with the diffusive
// balancer on (queued requests migrate around the ring to the idle
// shards). Columns report wall time, throughput, client-observed
// latency percentiles and requests migrated. Expected shape: sharding
// alone cannot help under total skew — it can even lose to 1 shard,
// since the hot shard now owns a quarter of the workers — while
// migration recovers the idle shards' capacity; its throughput win
// over migration-off is the direct measure of diffusive rebalancing,
// clearest when GOMAXPROCS >= the shard count.
func E24ShardedServe(cfg Config) *perf.Table {
	const workers = 4
	const shards = 4
	const clients = 32
	const n = 2048
	t := perf.NewTable(
		"Table 14: sharded serving under tenant skew — W=4 total, 32 clients, all tenants homed on shard 0",
		"config", "reqs", "time", "req/s", "p50(us)", "p95(us)", "p99(us)", "migrated")

	reqs := 4000
	if cfg.Quick {
		reqs = 600
	}
	base := gen.Ints(n, gen.Uniform, cfg.seed())

	configs := []struct {
		name   string
		shards int
		procs  int
		noMig  bool
	}{
		{"1 shard", 1, workers, true},
		{"4 shards, no migration", shards, workers / shards, true},
		{"4 shards + migration", shards, workers / shards, false},
	}
	for _, c := range configs {
		g := serve.NewSharded(serve.ShardedConfig{
			Shards:           c.shards,
			ShardProcs:       c.procs,
			DisableMigration: c.noMig,
			AdaptivePerShard: cfg.Adaptive,
		})
		tenants := skewedTenants(g, 4)
		lat := make([]float64, reqs)
		var next atomic.Int64
		var wg sync.WaitGroup
		start := time.Now()
		for cl := 0; cl < clients; cl++ {
			wg.Add(1)
			go func(cl int) {
				defer wg.Done()
				tenant := tenants[cl%len(tenants)]
				xs := make([]int64, n)
				hist := make([]int, 1024)
				bucket := func(v int64) int { return int(uint64(v) % 1024) }
				for {
					i := int(next.Add(1)) - 1
					if i >= reqs {
						return
					}
					copy(xs, base)
					t0 := time.Now()
					switch i % 2 {
					case 0:
						_ = serve.Sort(g, tenant, xs)
					case 1:
						_ = serve.Histogram(g, tenant, hist, xs, bucket)
					}
					lat[i] = time.Since(t0).Seconds()
				}
			}(cl)
		}
		wg.Wait()
		wall := time.Since(start)
		st := g.Stats()
		g.Close()
		t.AddRowf(c.name, reqs, perf.FormatDuration(wall.Seconds()),
			int(float64(reqs)/wall.Seconds()+0.5),
			perf.Percentile(lat, 50)*1e6,
			perf.Percentile(lat, 95)*1e6,
			perf.Percentile(lat, 99)*1e6,
			st.Migrated)
	}
	return t
}
