package exec

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
)

// Sharded is a group of executor shards: N independent worker pools,
// each with its own work-stealing deque set, park/wake machinery and
// occupancy gauges, so N contention domains replace one. Callers
// route work to a shard themselves (internal/serve hashes a tenant to
// its home shard), keeping their scratch reuse and adaptive state
// shard-local; work only crosses shards when a balancer above this
// layer decides it should (the diffusive migration in internal/serve).
//
// Occupancy is where sharding pays observability dividends: the old
// process-wide gauge blurred every workload together — one busy
// kernel made the whole process read loaded, so admission control and
// adaptive shedding on an idle shard degraded for someone else's
// traffic. ShardOccupancy isolates the gauges per shard (an idle
// shard reads exactly 0 no matter how saturated its neighbors are),
// and Occupancy keeps the cheap global aggregate for callers that
// still want the process view.
type Sharded struct {
	shards []*Executor
}

// NewSharded creates a group of shards executor shards with
// procsPerShard workers each. shards <= 0 means DefaultShardCount();
// procsPerShard <= 0 divides GOMAXPROCS evenly (at least one worker
// per shard). Workers start lazily per shard, so idle shards cost
// nothing until their first task.
func NewSharded(shards, procsPerShard int) *Sharded {
	if shards <= 0 {
		shards = DefaultShardCount()
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

// DefaultShardCount returns min(GOMAXPROCS/4, 8), at least 1 — a
// shard per four cores keeps each shard's pool wide enough for real
// fork/join parallelism, and eight shards is plenty of contention
// relief before the balancer's ring distance starts to matter. The
// REPRO_EXEC_SHARDS environment variable overrides it; invalid values
// are rejected loudly on stderr like REPRO_EXEC_PROCS.
func DefaultShardCount() int {
	if s := os.Getenv("REPRO_EXEC_SHARDS"); s != "" {
		v, err := strconv.Atoi(s)
		if err != nil || v <= 0 {
			fmt.Fprintf(os.Stderr,
				"exec: ignoring invalid REPRO_EXEC_SHARDS=%q (want a positive integer); using the GOMAXPROCS default\n", s)
		} else {
			return v
		}
	}
	n := runtime.GOMAXPROCS(0) / 4
	if n > 8 {
		n = 8
	}
	if n < 1 {
		n = 1
	}
	return n
}

// Shards returns the number of shards in the group.
func (g *Sharded) Shards() int { return len(g.shards) }

// Shard returns shard i's executor.
func (g *Sharded) Shard(i int) *Executor { return g.shards[i] }

// ShardOccupancy returns shard i's instantaneous occupancy gauge —
// exactly 0 the moment its last running task finishes, regardless of
// the other shards' load.
func (g *Sharded) ShardOccupancy(i int) float64 { return g.shards[i].Occupancy() }

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

// Steals returns the cumulative successful steals summed across all
// shards' pools (steals never cross shards; only the balancer moves
// work between them).
func (g *Sharded) Steals() int64 {
	var n int64
	for _, e := range g.shards {
		n += e.Steals()
	}
	return n
}

// Close closes every shard's executor and waits for their workers to
// exit.
func (g *Sharded) Close() {
	for _, e := range g.shards {
		e.Close()
	}
}
