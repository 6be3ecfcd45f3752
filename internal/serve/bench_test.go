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
	"repro/internal/loadgen"
	"repro/internal/par"
	"repro/internal/psort"
	"repro/internal/rescache"
	"repro/internal/scratch"
)

// BenchmarkTrafficServe is the request-serving half of the traffic
// suite: client goroutines each issuing small mixed requests (sort /
// histogram / scan / sum, 2K elements each — the shape of an
// aggregation endpoint), swept across client counts of 1x/4x/16x/64x
// GOMAXPROCS and three handling disciplines:
//
//   - naive: every request invokes the parallel kernel directly (how
//     all pre-serve entry points behave);
//   - batched: one admission-controlled Server — one fused fork/join
//     per batch, kernels serial inside their slot;
//   - sharded: the sharded server — tenants hash across shards, each
//     with its own executor, queues and dispatcher, diffusive
//     migration on.
//
// All modes run the same total worker count on dedicated executors
// and scratch pools, so the deltas are purely the request-handling
// discipline. Expected shape: batched >= 1.5x naive at ~10x fewer
// B/op (per-request fork/join, splitter sampling and
// private-histogram zeroing are paid once per batch), and sharded
// pulls ahead of single-server batched as the client multiple grows
// — at 16x-64x GOMAXPROCS the single server's submit mutex and lone
// dispatcher serialize admission, while N shards admit and dispatch
// in parallel.
func BenchmarkTrafficServe(b *testing.B) {
	for _, mult := range []int{1, 4, 16, 64} {
		clients := mult * runtime.GOMAXPROCS(0)
		for _, mode := range []string{"naive", "batched", "sharded"} {
			b.Run(fmt.Sprintf("clients=%dxP/mode=%s", mult, mode), func(b *testing.B) {
				benchTrafficServe(b, mode, clients)
			})
		}
	}
}

// trafficWorkers is the total worker count every mode runs at.
const trafficWorkers = 4

// trafficShards is the shard count of the sharded mode; workers split
// evenly so the total stays trafficWorkers.
const trafficShards = 4

// benchTrafficServe drives b.N mixed requests from the given number
// of closed-loop clients.
func benchTrafficServe(b *testing.B, mode string, clients int) {
	const n = 2 << 10
	base := randInts(n, 42)

	var (
		f         Front // nil in naive mode: the kernels are called directly
		s         *Server
		g         *Sharded
		naiveOpts par.Options
	)
	switch mode {
	case "batched":
		e := exec.New(trafficWorkers)
		defer e.Close()
		s = New(Config{Executor: e, Scratch: scratch.New(), Workers: trafficWorkers,
			BatchWindow: 200 * time.Microsecond})
		defer s.Close()
		f = s
	case "sharded":
		g = NewSharded(ShardedConfig{
			Shards:     trafficShards,
			ShardProcs: trafficWorkers / trafficShards,
			Config:     Config{BatchWindow: 200 * time.Microsecond},
		})
		defer g.Close()
		f = g
	default:
		e := exec.New(trafficWorkers)
		defer e.Close()
		naiveOpts = par.Options{Procs: trafficWorkers, Executor: e, Scratch: scratch.New()}
	}

	var next atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			tenant := string(rune('a' + c%16))
			xs := make([]int64, n)
			dst := make([]int64, n)
			hist := make([]int, 1024)
			bucket := func(v int64) int { return int(uint64(v) % 1024) }
			add := func(a, b int64) int64 { return a + b }
			// One record per client, reused: a record built per request
			// escapes when submitted through an interface-typed front.
			var a kernel.Args
			for {
				i := int(next.Add(1)) - 1
				if i >= b.N {
					return
				}
				copy(xs, base)
				if f == nil {
					switch i % 4 {
					case 0:
						psort.SampleSort(xs, naiveOpts)
					case 1:
						par.HistogramInto(hist, xs, naiveOpts, bucket)
					case 2:
						par.ScanInclusive(dst, xs, naiveOpts, 0, add)
					case 3:
						par.Sum(xs, naiveOpts)
					}
					continue
				}
				var k *kernel.Kernel
				switch i % 4 {
				case 0:
					k, a = kernelSort, kernel.Args{Xs: xs}
				case 1:
					k, a = kernelHistogram, kernel.Args{Xs: xs, Hist: hist, Bucket: bucket}
				case 2:
					k, a = kernelScan, kernel.Args{Xs: xs, Dst: dst}
				case 3:
					k, a = kernelSum, kernel.Args{Xs: xs}
				}
				_ = f.CallBudget(tenant, k, &a, 0)
			}
		}(c)
	}
	wg.Wait()
	b.StopTimer()
	switch mode {
	case "batched":
		st := s.Stats()
		if st.Batches > 0 {
			b.ReportMetric(float64(st.BatchedRequests)/float64(st.Batches), "reqs/batch")
		}
	case "sharded":
		st := g.Stats()
		if st.Aggregate.Batches > 0 {
			b.ReportMetric(float64(st.Aggregate.BatchedRequests)/float64(st.Aggregate.Batches), "reqs/batch")
		}
		b.ReportMetric(float64(st.Migrated), "migrated")
	}
}

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
	e := exec.New(trafficWorkers)
	defer e.Close()
	s := New(Config{Executor: e, Scratch: scratch.New(), Workers: trafficWorkers,
		BatchWindow: 200 * time.Microsecond, SLO: slo})
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

// BenchmarkTrafficServeSkew is the worst case for affinity routing:
// every client hammers tenants homed on shard 0 while the other
// shards idle. With migration disabled that degenerates to one shard
// doing all the work (the other dispatchers park); with the diffusive
// balancer on, queued requests spread around the ring and the idle
// shards' workers join in. The migration=on/off delta is the direct
// measure of what rebalancing buys under pathological skew.
func BenchmarkTrafficServeSkew(b *testing.B) {
	b.Run("migration=off", func(b *testing.B) { benchTrafficSkew(b, true) })
	b.Run("migration=on", func(b *testing.B) { benchTrafficSkew(b, false) })
}

// benchTrafficSkew drives b.N mixed requests from 32 clients, all on
// tenants homed on shard 0.
func benchTrafficSkew(b *testing.B, disableMigration bool) {
	const n = 2 << 10
	base := randInts(n, 42)

	g := NewSharded(ShardedConfig{
		Shards:           trafficShards,
		ShardProcs:       trafficWorkers / trafficShards,
		DisableMigration: disableMigration,
		Config:           Config{BatchWindow: 200 * time.Microsecond},
	})
	defer g.Close()
	tenants := tenantsHomedOn(g, 0, 4)

	const clients = 32
	var next atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			tenant := tenants[c%len(tenants)]
			xs := make([]int64, n)
			hist := make([]int, 1024)
			bucket := func(v int64) int { return int(uint64(v) % 1024) }
			for {
				i := int(next.Add(1)) - 1
				if i >= b.N {
					return
				}
				copy(xs, base)
				switch i % 2 {
				case 0:
					_ = Sort(g, tenant, xs)
				case 1:
					_ = Histogram(g, tenant, hist, xs, bucket)
				}
			}
		}(c)
	}
	wg.Wait()
	b.StopTimer()
	st := g.Stats()
	b.ReportMetric(float64(st.Migrated), "migrated")
	var offHome int64
	for i := 1; i < g.Shards(); i++ {
		offHome += st.PerShard[i].Completed
	}
	if b.N > 1 {
		b.ReportMetric(float64(offHome)/float64(b.N), "offhome-frac")
	}
}

// BenchmarkTrafficServeCache is the result-cache third of the traffic
// suite: the same 2K-element sort endpoint served three ways through
// one cache-fronted server.
//
//   - cold: every request presents a distinct input (one word varies
//     per iteration), so every probe misses and pays the full path —
//     fingerprint, admission, batching, kernel, insert. The long tail
//     of distinct entries also churns the LRU once the cache fills,
//     so eviction cost is in this row, where it belongs.
//   - warm: every request repeats the identical input; after the
//     first, each probe hits and is restored at the door with zero
//     kernel work. allocs/op is the pinned 0 of the hit path.
//   - delta: a standing sorted record absorbs a 16-element append per
//     request through the kernel's incremental adapter — the batch
//     path without the O(n log n) rerun. The record is re-seeded
//     (off-clock) before it grows past 8x its base size so the merge
//     cost being measured stays the steady-state one.
func BenchmarkTrafficServeCache(b *testing.B) {
	for _, mode := range []string{"cold", "warm", "delta"} {
		b.Run("mode="+mode, func(b *testing.B) {
			benchTrafficCache(b, mode)
		})
	}
}

func benchTrafficCache(b *testing.B, mode string) {
	const n = 2 << 10
	base := randInts(n, 42)
	e := exec.New(trafficWorkers)
	defer e.Close()
	pool := scratch.New()
	s := New(Config{Executor: e, Scratch: pool, Workers: trafficWorkers,
		BatchWindow: 200 * time.Microsecond,
		Cache:       rescache.New(rescache.Config{Pool: pool})})
	defer s.Close()
	kSort := kernel.MustLookup("sort")
	const tenant = "t"

	// One primed record: fingerprint(base) -> sorted(base). The warm
	// mode re-presents base; the delta mode starts from the sorted
	// output it left behind.
	sorted := make([]int64, n)
	copy(sorted, base)
	if err := Sort(s, tenant, sorted); err != nil {
		b.Fatal(err)
	}

	a := kernel.Args{Xs: make([]int64, 0, 16*n)}
	a.Xs = append(a.Xs, sorted...)
	chunk := make([]int64, 16)
	xs := make([]int64, n)

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		switch mode {
		case "cold":
			copy(xs, base)
			xs[0] = int64(i) // distinct fingerprint every iteration
			if err := Sort(s, tenant, xs); err != nil {
				b.Fatal(err)
			}
		case "warm":
			copy(xs, base) // the hit restored sorted output in place
			if err := Sort(s, tenant, xs); err != nil {
				b.Fatal(err)
			}
		case "delta":
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
	b.StopTimer()
	st := s.Stats()
	if b.N > 1 {
		b.ReportMetric(float64(st.CacheHits)/float64(b.N), "hits-frac")
	}
	if cs := s.Cache().Stats(); cs.Evictions > 0 {
		b.ReportMetric(float64(cs.Evictions), "evictions")
	}
}
