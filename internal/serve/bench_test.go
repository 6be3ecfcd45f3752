package serve

import (
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/kernel"
	"repro/internal/loadgen"
	"repro/internal/rescache"
	"repro/internal/scratch"
)

// The serving rows that the repo's benchmark (bench/, BENCHMARK.json)
// covers end to end are not duplicated here; BENCHMARKS.md maps each
// retired row to its workload and experiment. What remains are the
// rows no workload sends: open-loop arrivals and delta updates.

// trafficWorkers is the worker count every benchmark server runs at.
const trafficWorkers = 4

// BenchmarkTrafficServeOpenLoop is the coordinated-omission-free half
// of the traffic suite: b.N mixed requests arrive on a fixed open-loop
// schedule (constant-rate or Poisson-bursty) instead of from
// closed-loop retry clients, so a stalled batch cannot slow the
// offered load down. ns/op tracks the schedule (~1/rate) and is not
// the interesting number; the custom metrics are: p99corr-ns is the
// honest tail (latency charged from the intended arrival), p99uncorr-ns
// is what a send-time clock would claim, and their ratio is the size
// of the coordinated-omission lie at this load. The slo=on variant
// adds a deadline budget and reports how many requests the door and
// the dispatcher refused instead of serving late.
func BenchmarkTrafficServeOpenLoop(b *testing.B) {
	for _, bc := range []struct {
		name    string
		poisson bool
		slo     time.Duration
	}{
		{"arrival=const/slo=off", false, 0},
		{"arrival=poisson/slo=off", true, 0},
		{"arrival=poisson/slo=on", true, 2 * time.Millisecond},
	} {
		b.Run(bc.name, func(b *testing.B) {
			benchTrafficOpenLoop(b, bc.poisson, bc.slo)
		})
	}
}

// openLoopRate is the offered load of the open-loop benchmark in
// requests per second — chosen to stress the 4-worker server without
// stretching a 1000x run past a fraction of a second of schedule.
const openLoopRate = 5000.0

// benchTrafficOpenLoop fires b.N schedule-driven mixed requests at a
// batched server and reports corrected vs uncorrected tails.
func benchTrafficOpenLoop(b *testing.B, poisson bool, slo time.Duration) {
	const n = 2 << 10
	base := randInts(n, 42)
	s := NewSharded(ShardedConfig{Shards: 1, ShardProcs: trafficWorkers, Config: Config{
		Scratch: scratch.New(), SLO: slo}})
	defer s.Close()

	var sched loadgen.Schedule
	if poisson {
		sched = loadgen.Poisson(b.N, openLoopRate, 42)
	} else {
		sched = loadgen.Constant(b.N, openLoopRate)
	}
	// Open-loop arrivals overlap, so each in-flight request needs its
	// own payload buffers; the pool is harness overhead, not a serve
	// allocation.
	type bufs struct {
		xs   []int64
		hist []int
	}
	pool := sync.Pool{New: func() any {
		return &bufs{xs: make([]int64, n), hist: make([]int, 1024)}
	}}
	bucket := func(v int64) int { return int(uint64(v) % 1024) }

	b.ResetTimer()
	res := loadgen.Run(sched, func(i int) error {
		bf := pool.Get().(*bufs)
		defer pool.Put(bf)
		copy(bf.xs, base)
		tenant := string(rune('a' + i%4))
		if i%2 == 0 {
			return Sort(s, tenant, bf.xs)
		}
		return Histogram(s, tenant, bf.hist, bf.xs, bucket)
	})
	b.StopTimer()

	rep := res.Summarize(sched)
	b.ReportMetric(rep.CorrectedP99*1e9, "p99corr-ns")
	b.ReportMetric(rep.UncorrectedP99*1e9, "p99uncorr-ns")
	deadline := res.Failed(func(err error) bool { return errors.Is(err, ErrDeadlineExceeded) })
	b.ReportMetric(float64(deadline), "deadline-refused")
}

// BenchmarkTrafficServeCache/mode=delta is the delta-update row of the
// result-cache suite: a standing sorted 2K-element record absorbs a
// 16-element append per request through the sort kernel's incremental
// adapter on a cache-fronted server — the batch path without the
// O(n log n) rerun. The record is re-seeded (off-clock) before it grows
// past 8x its base size so the merge cost being measured stays the
// steady-state one. The cold and warm rows are the wire_small_uniq and
// wire_repeat_hot workloads and experiment E27.
func BenchmarkTrafficServeCache(b *testing.B) {
	b.Run("mode=delta", benchTrafficDelta)
}

func benchTrafficDelta(b *testing.B) {
	const n = 2 << 10
	pool := scratch.New()
	s := NewSharded(ShardedConfig{Shards: 1, ShardProcs: trafficWorkers, Config: Config{
		Scratch: pool, Cache: rescache.New(rescache.Config{Pool: pool})}})
	defer s.Close()
	kSort := kernel.MustLookup("sort")
	const tenant = "t"

	sorted := randInts(n, 42)
	if err := Sort(s, tenant, sorted); err != nil {
		b.Fatal(err)
	}
	a := kernel.Args{Xs: make([]int64, 0, 16*n)}
	a.Xs = append(a.Xs, sorted...)
	chunk := make([]int64, 16)

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(a.Xs) > 8*n {
			b.StopTimer()
			a.Xs = append(a.Xs[:0], sorted...)
			b.StartTimer()
		}
		for j := range chunk {
			chunk[j] = int64((i*16+j)*2654435761) % 100003
		}
		if err := s.CallDeltaBudget(tenant, kSort, &a, &kernel.Delta{Append: chunk}, 0); err != nil {
			b.Fatal(err)
		}
	}
}
