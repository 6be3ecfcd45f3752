package serve

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/exec"
	"repro/internal/kernel"
	"repro/internal/rescache"
	"repro/internal/scratch"
)

// ShardedConfig shapes a Sharded server: the embedded Config is the
// per-shard template (every shard owns a dedicated executor; a nil
// Scratch gives every shard its own arena pool), and the sharding
// knobs control shard count, per-shard worker count and the diffusive
// balancer.
type ShardedConfig struct {
	Config

	// Shards is the number of executor shards; <= 0 means 1.
	Shards int
	// ShardProcs is the worker count of each shard's executor; <= 0
	// divides GOMAXPROCS evenly across shards (at least one each).
	ShardProcs int
	// DisableMigration turns the diffusive balancer off: requests
	// stay on their affinity shard no matter how skewed the load gets.
	// The migration-on/off delta is the balancer's measured value
	// (experiment E24; embed_skew's serve.migrated in bench/).
	DisableMigration bool
	// MigrateHysteresis is the queue-depth divergence (in requests)
	// between two adjacent shards below which no migration happens;
	// <= 0 means DefaultMigrateHysteresis. Hysteresis is what
	// preserves affinity: balanced traffic never diverges past it, so
	// tenants stay home and their scratch/adaptive state stays hot.
	MigrateHysteresis int
}

// DefaultMigrateHysteresis is the MigrateHysteresis default.
const DefaultMigrateHysteresis = 8

// DefaultMigrateHeadroom is the occupancy EWMA at or below which a
// shard is considered to have room for migrated work; a busier target
// refuses migration (moving work between two saturated shards only
// destroys locality).
const DefaultMigrateHeadroom = 0.75

// withDefaults resolves the sharding knobs once, at construction. The
// template Config is resolved per shard by build, against that shard's
// own executor.
func (c ShardedConfig) withDefaults() ShardedConfig {
	if c.Shards <= 0 {
		c.Shards = 1
	}
	if c.MigrateHysteresis <= 0 {
		c.MigrateHysteresis = DefaultMigrateHysteresis
	}
	return c
}

// ShardedStats is a snapshot of a sharded server's counters: the
// field-wise aggregate over shards (Tenants counts distinct names,
// not per-shard entries), the per-shard breakdown, and the balancer's
// migration counters.
type ShardedStats struct {
	Shards    int
	Aggregate Stats
	PerShard  []Stats
	// Migrations counts balancer events (each moves one slice of
	// requests between adjacent shards); Migrated, the requests moved,
	// is Aggregate.MigratedIn. Both stay 0 under balanced traffic —
	// migration is the exception path, not the routing path.
	Migrations, Migrated int64
}

// Sharded is the request-serving runtime: N independent shards — each
// with its own executor (work-stealing deques, occupancy gauges),
// scratch arena pool and batch dispatcher, sharing the template's
// adaptive controller when it sets one — plus a diffusive load
// balancer between them.
//
// Requests route to their tenant's home shard by stable hash, so in
// the common (balanced) case a tenant's queue, batches and scratch
// reuse are all shard-local and the N dispatchers never contend.
// When tenant skew overloads one shard, the balancer migrates queued
// requests to adjacent shards in the ring — the
// diffusive/repartitioning strategy of parallel adaptive FEM load
// balancing, applied to request queues instead of mesh partitions:
// compare local load estimates with your neighbors', move half the
// divergence when it exceeds a hysteresis threshold, and let repeated
// local exchanges spread a hot spot across the whole ring without any
// global re-assignment. Both balancer edges piggyback on existing
// events (a submitter observing a deep backlog pushes; an idle
// dispatcher pulls before parking), so no dedicated balancer
// goroutine or ticker exists.
//
// One shard is the degenerate case: it gets no balancer hooks, so the
// only per-call work beyond the shard's own is hashing the tenant name.
//
// Create one with NewSharded, submit through the Front methods or the
// typed helpers (Sort, Select, Histogram, Scan, Sum, BFS) from any
// number of goroutines, and Close it when done.
type Sharded struct {
	cfg    ShardedConfig
	execs  *exec.Sharded
	shards []*shard
	closed atomic.Bool

	migrations atomic.Int64
	// migBufs recycles the migration slices so a steady stream of
	// balancer events allocates nothing per event.
	migBufs sync.Pool
}

// NewSharded creates a sharded server and starts one dispatcher per
// shard — after every shard is built, so a dispatcher's first idle
// probe already finds both its neighbors.
func NewSharded(cfg ShardedConfig) *Sharded {
	cfg = cfg.withDefaults()
	n := cfg.Shards
	g := &Sharded{cfg: cfg}
	g.migBufs.New = func() any { return new([]*request) }
	g.execs = exec.NewSharded(n, cfg.ShardProcs)
	g.shards = make([]*shard, n)
	for i := range g.shards {
		sc := cfg.Config
		sc.executor = g.execs.Shard(i)
		if sc.Scratch == nil {
			sc.Scratch = scratch.New()
		}
		if !cfg.DisableMigration && n > 1 {
			i := i
			sc.stealIdle = func() int { return g.pull(i) }
			sc.overflow = func(queued int) { g.push(i, queued) }
		}
		g.shards[i] = build(sc)
	}
	for _, s := range g.shards {
		s.start()
	}
	return g
}

// shardKey hashes a tenant name (FNV-1a) to its affinity key.
func shardKey(tenant string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(tenant); i++ {
		h ^= uint64(tenant[i])
		h *= 1099511628211
	}
	return h
}

// home returns the tenant's affinity shard.
func (g *Sharded) home(tenant string) *shard {
	return g.shards[shardKey(tenant)%uint64(len(g.shards))]
}

// HomeShard returns the shard index the tenant routes to — the
// affinity mapping made observable for tests and demos.
func (g *Sharded) HomeShard(tenant string) int {
	return int(shardKey(tenant) % uint64(len(g.shards)))
}

// Shards returns the number of shards.
func (g *Sharded) Shards() int { return len(g.shards) }

// Executors returns the underlying executor shard group (per-shard
// and aggregate occupancy gauges, steal counters).
func (g *Sharded) Executors() *exec.Sharded { return g.execs }

// push is the balancer's push edge, called on a submitter's goroutine
// after it deepened shard from's backlog to queued requests. The
// cheap depth gate keeps the common un-backlogged case to one integer
// compare.
func (g *Sharded) push(from, queued int) {
	if queued < 2*g.cfg.MigrateHysteresis || g.closed.Load() {
		return
	}
	n := len(g.shards)
	left, right := (from+n-1)%n, (from+1)%n
	if g.tryMigrate(from, left) > 0 {
		return
	}
	if right != left {
		g.tryMigrate(from, right)
	}
}

// pull is the balancer's pull edge, called by shard to's dispatcher
// when its queues are empty, before parking.
func (g *Sharded) pull(to int) int {
	if g.closed.Load() {
		return 0
	}
	n := len(g.shards)
	left, right := (to+n-1)%n, (to+1)%n
	if m := g.tryMigrate(left, to); m > 0 {
		return m
	}
	if right != left {
		return g.tryMigrate(right, to)
	}
	return 0
}

// tryMigrate is one diffusive exchange between adjacent shards: if
// from's queue exceeds to's by at least the hysteresis threshold and
// to's executor has headroom (occupancy EWMA at or below
// DefaultMigrateHeadroom — the smoothing is what keeps one idle probe
// between batches from reading as an idle shard), move half the
// divergence (capped at one batch). It returns the number of requests
// moved. The popped requests are owned exclusively by this goroutine
// between the pop and the inject, so a request is never on two queues
// and never on none-without-an-owner: migration is exactly-once by
// construction.
func (g *Sharded) tryMigrate(from, to int) int {
	if from == to {
		return 0
	}
	diff := g.shards[from].queueDepth() - g.shards[to].queueDepth()
	if diff < g.cfg.MigrateHysteresis {
		return 0
	}
	if g.execs.Shard(to).OccupancyEWMA() > DefaultMigrateHeadroom {
		return 0
	}
	take := min(diff/2, maxBatch)
	bufp := g.migBufs.Get().(*[]*request)
	buf := g.shards[from].migrateOut((*bufp)[:0], take)
	n := len(buf)
	if n > 0 {
		g.shards[to].migrateIn(buf)
		g.migrations.Add(1)
	}
	*bufp = buf[:0]
	g.migBufs.Put(bufp)
	return n
}

// Close stops the balancer, closes every shard (draining their queues)
// and then closes their executors. Idempotent.
func (g *Sharded) Close() {
	g.closed.Store(true)
	for _, s := range g.shards {
		s.Close()
	}
	g.execs.Close()
}

// Stats returns a racy snapshot of the sharded server's counters.
func (g *Sharded) Stats() ShardedStats {
	st := ShardedStats{
		Shards:     len(g.shards),
		PerShard:   make([]Stats, len(g.shards)),
		Migrations: g.migrations.Load(),
	}
	for i, s := range g.shards {
		ss := s.Stats()
		st.PerShard[i] = ss
		a := &st.Aggregate
		a.Accepted += ss.Accepted
		a.Rejected += ss.Rejected
		a.Completed += ss.Completed
		a.Batches += ss.Batches
		a.BatchedRequests += ss.BatchedRequests
		if ss.MaxBatch > a.MaxBatch {
			a.MaxBatch = ss.MaxBatch
		}
		a.ParallelBatches += ss.ParallelBatches
		a.SerialBatches += ss.SerialBatches
		a.Shed += ss.Shed
		a.Degraded += ss.Degraded
		a.Pipelined += ss.Pipelined
		a.DeadlineRejected += ss.DeadlineRejected
		a.Expired += ss.Expired
		a.CacheHits += ss.CacheHits
		a.CacheMisses += ss.CacheMisses
		a.MigratedIn += ss.MigratedIn
		a.MigratedOut += ss.MigratedOut
	}
	st.Aggregate.Tenants = g.tenantCount()
	st.Migrated = st.Aggregate.MigratedIn
	return st
}

// tenantCount is the number of distinct tenant names across shards,
// counted without merging the tables. Admission creates a name's entry
// on its home shard and entries are never removed, so a sibling holds
// a name only for requests migrated to it, and each name counts on its
// home shard. OverflowTenant can sit on any shard that folded names or
// received folded requests, and counts once.
func (g *Sharded) tenantCount() int {
	n, overflow := 0, false
	for i, s := range g.shards {
		s.mu.Lock()
		for name := range s.tenants {
			if name == OverflowTenant {
				overflow = true
			} else if g.HomeShard(name) == i {
				n++
			}
		}
		s.mu.Unlock()
	}
	if overflow {
		n++
	}
	return n
}

// TenantStats returns per-tenant counters merged by name across
// shards (a migrated tenant has entries on more than one shard), in
// name order. Accepted is counted on the home shard and Completed
// wherever the request executed, so the merged view is the one in
// which every tenant's Accepted and Completed match.
func (g *Sharded) TenantStats() []TenantStats {
	m := map[string]TenantStats{}
	for _, s := range g.shards {
		for _, ts := range s.TenantStats() {
			cur := m[ts.Name]
			cur.Name = ts.Name
			cur.Accepted += ts.Accepted
			cur.Rejected += ts.Rejected
			cur.Completed += ts.Completed
			cur.DeadlineRejected += ts.DeadlineRejected
			cur.Expired += ts.Expired
			cur.CacheHits += ts.CacheHits
			m[ts.Name] = cur
		}
	}
	out := make([]TenantStats, 0, len(m))
	for _, ts := range m {
		out = append(out, ts)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// CallBudget submits one request for any registered kernel on the
// tenant's home shard (see shard.CallBudget). Under skew the request
// may execute on a migrated-to sibling, but its accounting stays with
// the home shard's tenant entry, and the absolute stamp derived from
// the budget rides migration, so a thief shard enforces a remote
// client's budget exactly as it enforces a home SLO.
func (g *Sharded) CallBudget(tenant string, k *kernel.Kernel, a *kernel.Args, budget time.Duration) error {
	return g.home(tenant).CallBudget(tenant, k, a, budget)
}

// CallDeltaBudget submits one incremental request (see
// shard.CallDeltaBudget) on the tenant's home shard.
func (g *Sharded) CallDeltaBudget(tenant string, k *kernel.Kernel, a *kernel.Args, d *kernel.Delta, budget time.Duration) error {
	return g.home(tenant).CallDeltaBudget(tenant, k, a, d, budget)
}

// Cache returns the result cache shared by every shard (the template
// Config's Cache pointer), nil when caching is off.
func (g *Sharded) Cache() *rescache.Cache { return g.cfg.Cache }

// BumpGeneration invalidates every result cached for tenant. The
// cache is shared across shards, so one bump is visible to all of
// them — including a thief shard serving the tenant's migrated
// requests.
func (g *Sharded) BumpGeneration(tenant string) uint64 {
	if c := g.cfg.Cache; c != nil {
		return c.Bump(tenant)
	}
	return 0
}
