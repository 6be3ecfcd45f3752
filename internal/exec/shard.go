package exec

import "runtime"

// Sharded is a group of executor shards: N independent worker pools,
// each with its own work-stealing deque set, park/wake machinery and
// occupancy gauges, so N contention domains replace one. Callers
// route work to a shard themselves (internal/serve hashes a tenant to
// its home shard), keeping their scratch reuse shard-local; work only
// crosses shards when a balancer above this layer decides it should
// (the diffusive migration in internal/serve).
//
// Occupancy is where sharding pays observability dividends: the old
// process-wide gauge blurred every workload together — one busy
// kernel made the whole process read loaded, so admission control and
// adaptive shedding on an idle shard degraded for someone else's
// traffic. Shard(i).Occupancy() is one shard's gauge (an idle
// shard reads exactly 0 no matter how saturated its neighbors are),
// and Occupancy keeps the cheap global aggregate for callers that
// still want the process view.
type Sharded struct {
	shards []*Executor
}

// NewSharded creates a group of shards executor shards with
// procsPerShard workers each. shards <= 0 means 1; procsPerShard <= 0
// divides GOMAXPROCS evenly (at least one worker per shard). Workers
// start lazily per shard, so idle shards cost nothing until their
// first task.
func NewSharded(shards, procsPerShard int) *Sharded {
	if shards <= 0 {
		shards = 1
	}
	if procsPerShard <= 0 {
		procsPerShard = runtime.GOMAXPROCS(0) / shards
		if procsPerShard < 1 {
			procsPerShard = 1
		}
	}
	g := &Sharded{shards: make([]*Executor, shards)}
	for i := range g.shards {
		g.shards[i] = New(procsPerShard)
	}
	return g
}

// Shards returns the number of shards in the group.
func (g *Sharded) Shards() int { return len(g.shards) }

// Shard returns shard i's executor.
func (g *Sharded) Shard(i int) *Executor { return g.shards[i] }

// Occupancy returns the worker-weighted aggregate occupancy across
// all shards — the process-wide view the single pool used to give,
// recovered from the per-shard gauges. Like them it is a cheap racy
// snapshot, and it reads exactly 0 once every shard has quiesced.
func (g *Sharded) Occupancy() float64 {
	var running, procs float64
	for _, e := range g.shards {
		running += e.Occupancy() * float64(e.Procs())
		procs += float64(e.Procs())
	}
	return running / procs
}

// Close closes every shard's executor and waits for their workers to
// exit.
func (g *Sharded) Close() {
	for _, e := range g.shards {
		e.Close()
	}
}
