package serve

import (
	"testing"

	"repro/internal/kernel"
	"repro/internal/racecheck"
)

// TestConcurrentServeZeroAllocs pins 0 allocations per request with
// many concurrent callers, on the two paths a lone caller never takes:
// the fused parallel batch (one caller only ever forms serial
// singletons) and shard migration. Eight parked callers each own one
// reused argument record and its buffers; every testing.AllocsPerRun
// round releases them through one buffered channel and joins them
// through another, and channel operations do not allocate, so every
// allocation counted is the server's. Race instrumentation allocates,
// so under -race the rounds only give the detector the dispatcher's
// shared batch state to watch.
func TestConcurrentServeZeroAllocs(t *testing.T) {
	const callers, n = 8, 1 << 10
	s := NewSharded(ShardedConfig{Shards: 1, ShardProcs: 4})
	defer s.Close()
	// A low hysteresis lets eight callers build the backlog that
	// migrates: push fires at a queue depth of 2x hysteresis.
	g := NewSharded(ShardedConfig{Shards: 4, ShardProcs: 1, MigrateHysteresis: 2})
	defer g.Close()
	// One tenant per caller, all homed on shard 0, built once: naming a
	// tenant inside a round would allocate.
	tenants := tenantsHomedOn(g, 0, callers)
	rows := []struct {
		name    string
		f       Front
		counter func() int64 // must grow over the measured rounds
	}{
		{"server/parallel-batches", s, func() int64 { return s.Stats().Aggregate.ParallelBatches }},
		{"sharded/migrated", g, func() int64 { return g.Stats().Migrated }},
	}
	base := randInts(n, 42)
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			release := make(chan struct{}, callers)
			joined := make(chan error, callers)
			defer close(release)
			for c := 0; c < callers; c++ {
				go func(tenant string, c int) {
					xs, dst, hist := make([]int64, n), make([]int64, n), make([]int, 64)
					var a kernel.Args // reused: the interface call's escape is paid once
					for i := c; ; i++ {
						if _, ok := <-release; !ok {
							return
						}
						copy(xs, base)
						k := kernelSort
						switch i % 4 {
						case 0:
							a = kernel.Args{Xs: xs}
						case 1:
							k, a = kernelHistogram, kernel.Args{Xs: xs, Hist: hist, Bucket: bucket64}
						case 2:
							k, a = kernelScan, kernel.Args{Xs: xs, Dst: dst}
						case 3:
							k, a = kernelSum, kernel.Args{Xs: xs}
						}
						joined <- row.f.CallBudget(tenant, k, &a, 0)
					}
				}(tenants[c], c)
			}
			round := func() {
				for c := 0; c < callers; c++ {
					release <- struct{}{}
				}
				for c := 0; c < callers; c++ {
					if err := <-joined; err != nil {
						t.Fatal(err)
					}
				}
			}
			for i := 0; i < 64; i++ {
				round()
			}
			before := row.counter()
			// A GC between runs can repopulate sync.Pools on the measured
			// iteration; retry before declaring a leak.
			var allocs float64
			for attempt := 0; attempt < 3; attempt++ {
				if allocs = testing.AllocsPerRun(100, round); allocs == 0 {
					break
				}
			}
			if allocs != 0 && !racecheck.Enabled {
				t.Errorf("%d concurrent callers: %.3f allocs per round; want 0", callers, allocs)
			}
			if row.counter() == before {
				t.Errorf("the measured rounds never reached the path under test (%s stayed %d)", row.name, before)
			}
		})
	}
}

func bucket64(v int64) int { return int(uint64(v) % 64) }
