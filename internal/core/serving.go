package core

// The serving experiments: the request-serving stack layer by layer —
// batching, sharding, the kernel registry, load-harness methodology,
// the result cache, the wire front door and the long route. The
// closed-loop tables drive loadgen.Closed, the open-loop ones
// loadgen.Run; every server is built from Config.ServeConfig.

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/gen"
	"repro/internal/kernel"
	"repro/internal/loadgen"
	"repro/internal/par"
	"repro/internal/perf"
	"repro/internal/psort"
	"repro/internal/rescache"
	"repro/internal/serve"
	"repro/internal/wire"
)

// serveTenants are the tenant names the one-shard serving tables
// spread their clients over.
var serveTenants = []string{"a", "b", "c", "d"}

// reqBufs is one in-flight request's payload: the input it refreshes
// from the table's base vector before each call, and the outputs.
type reqBufs struct {
	xs, dst []int64
	hist    []int
}

// newReqBufs returns count buffer sets for n-element requests — one
// per closed-loop client, indexed by loadgen.Closed's client number.
func newReqBufs(count, n int) []reqBufs {
	bufs := make([]reqBufs, count)
	for i := range bufs {
		bufs[i] = reqBufs{xs: make([]int64, n), dst: make([]int64, n), hist: make([]int, 1024)}
	}
	return bufs
}

func histBucket(v int64) int { return int(uint64(v) % 1024) }

// sortOrHistogram issues request i of the two-kernel mix E24 and E26
// drive: even indices sort a fresh copy of base, odd ones histogram it.
func sortOrHistogram(f serve.Front, tenant string, i int, b *reqBufs, base []int64) error {
	copy(b.xs, base)
	if i%2 == 0 {
		return serve.Sort(f, tenant, b.xs)
	}
	return serve.Histogram(f, tenant, b.hist, b.xs, histBucket)
}

// E23Serve regenerates Table 13: concurrent clients issuing small
// mixed requests (sort / histogram / scan / sum over 2K-element
// payloads — an aggregation-endpoint shape), handled either naively
// (each request invokes the parallel kernel directly, one fork/join
// per request) or through the serve runtime (admission control plus
// batch fusion: one fork/join per batch, kernels serial in their
// slots). Both modes run at worker count 4 and on the harness scratch
// pool; the naive mode on the harness executor, the batched one on its
// shard's own. Columns report wall time, request throughput and
// client-observed latency percentiles; the expected shape is batched
// >= 1.5x naive throughput with a flatter tail as client concurrency
// grows.
func E23Serve(cfg Config) *perf.Table {
	const workers = 4
	const n = 2048
	t := perf.NewTable(
		"Table 13: request serving — batched admission vs per-request dispatch, W=4",
		"clients", "mode", "reqs", "time", "req/s", "p50(us)", "p95(us)", "p99(us)")

	reqs := cfg.size(4000, 600)
	base := gen.Ints(n, gen.Uniform, cfg.WorkloadSeed())
	naiveOpts := cfg.opts(workers, par.Dynamic, 0)
	add := func(a, b int64) int64 { return a + b }

	for _, clients := range []int{4, 16} {
		for _, mode := range []string{"naive", "batched"} {
			var srv *serve.Sharded
			if mode == "batched" {
				srv = oneShard(cfg.ServeConfig(workers))
			}
			bufs := newReqBufs(clients, n)
			res := loadgen.Closed(clients, reqs, func(c, i int) error {
				b, tenant := &bufs[c], serveTenants[c%len(serveTenants)]
				copy(b.xs, base)
				if srv == nil {
					switch i % 4 {
					case 0:
						psort.SampleSort(b.xs, naiveOpts)
					case 1:
						par.HistogramInto(b.hist, b.xs, naiveOpts, histBucket)
					case 2:
						par.ScanInclusive(b.dst, b.xs, naiveOpts, 0, add)
					case 3:
						par.Sum(b.xs, naiveOpts)
					}
					return nil
				}
				switch i % 4 {
				case 0:
					return serve.Sort(srv, tenant, b.xs)
				case 1:
					return serve.Histogram(srv, tenant, b.hist, b.xs, histBucket)
				case 2:
					return serve.Scan(srv, tenant, b.dst, b.xs)
				}
				_, err := serve.Sum(srv, tenant, b.xs)
				return err
			})
			if srv != nil {
				srv.Close()
			}
			rep := res.Summarize(loadgen.Schedule{})
			t.AddRowf(clients, mode, reqs, okOr(&res, perf.FormatDuration(res.Wall.Seconds())),
				int(float64(reqs)/res.Wall.Seconds()+0.5),
				rep.UncorrectedP50*1e6, rep.UncorrectedP95*1e6, rep.UncorrectedP99*1e6)
		}
	}
	return t
}

// okOr is cell, or wrongResult when any request of the closed-loop
// run res failed. E23, E24 and E29 set no SLO and every tenant's queue
// bound is above their client count, so none of their requests may be
// refused.
func okOr(res *loadgen.Result, cell string) string {
	if res.OK() < len(res.Samples) {
		return wrongResult
	}
	return cell
}

// oneShard builds a one-shard server on an executor as wide as the
// template's batches.
func oneShard(scfg serve.Config) *serve.Sharded {
	return serve.NewSharded(serve.ShardedConfig{Shards: 1, ShardProcs: scfg.Workers, Config: scfg})
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
// equal total worker count — one shard (one submit mutex, one
// dispatcher, one executor), four shards with
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

	reqs := cfg.size(4000, 600)
	base := gen.Ints(n, gen.Uniform, cfg.WorkloadSeed())

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
			Config:           cfg.ServeConfig(c.procs),
			Shards:           c.shards,
			ShardProcs:       c.procs,
			DisableMigration: c.noMig,
		})
		tenants := skewedTenants(g, 4)
		bufs := newReqBufs(clients, n)
		res := loadgen.Closed(clients, reqs, func(cl, i int) error {
			return sortOrHistogram(g, tenants[cl%len(tenants)], i, &bufs[cl], base)
		})
		st := g.Stats()
		g.Close()
		rep := res.Summarize(loadgen.Schedule{})
		t.AddRowf(c.name, reqs, okOr(&res, perf.FormatDuration(res.Wall.Seconds())),
			int(float64(reqs)/res.Wall.Seconds()+0.5),
			rep.UncorrectedP50*1e6, rep.UncorrectedP95*1e6, rep.UncorrectedP99*1e6,
			st.Migrated)
	}
	return t
}

// timeRestored is the median wall time of run over the configured reps
// (after one warm-up) for calls that consume their input: restore runs
// before every call, outside the timed region, so every rep does the
// same work instead of rep 1 sorting and the rest re-reading a sorted
// array.
func (c Config) timeRestored(restore, run func()) float64 {
	times := make([]float64, 0, c.reps())
	for rep := -1; rep < c.reps(); rep++ { // rep -1 is the warm-up
		restore()
		start := time.Now()
		run()
		if rep >= 0 {
			times = append(times, time.Since(start).Seconds())
		}
	}
	return perf.Summarize(times).Median
}

// shapedSeed is the Gen seed the single-input tables use. Sort's Gen
// answers seed%4 == 2 with the reversed ramp n..1 whatever the seed, and
// the default 42 draws exactly that, so those seeds are skipped, as
// bench/ does — forward to seed%4 == 0, sort's uniform wide-key shape.
func (c Config) shapedSeed() uint64 {
	seed := c.WorkloadSeed()
	if seed%4 == 2 {
		seed += 2
	}
	return seed
}

// E25KernelRegistry regenerates Table 15: every registered kernel
// measured through the three execution ladders the registry wires it
// into — a direct one-shot Run (the classic benchmark shape), the
// serve batch path at request-sized inputs (admission, queueing and
// the fused batch loop included), and the long route for kernels with
// a Stream adapter (the server's own cutoff does the routing, lowered
// so the table's big inputs qualify). Comparing the serve column
// against one-shot at the same size exposes the serving runtime's
// overhead per request; the long column is the same input through the
// adapter on the caller's goroutine. Kernels that write Xs (sort, gups)
// would hand every later rep their own output, so each timed call
// starts from a pristine copy restored outside the clock.
func E25KernelRegistry(cfg Config) *perf.Table {
	p := runtime.GOMAXPROCS(0)
	nBig := cfg.size(1<<17, 1<<13)
	nSmall := cfg.size(4096, 1024)
	reqs := cfg.size(256, 32)
	t := perf.NewTable(
		fmt.Sprintf("Table 15: registry kernel ladder, P=%d (one-shot/long n=%d, serve n=%d, %d reqs/point)",
			p, nBig, nSmall, reqs),
		"kernel", "variants", "one-shot", "serve(us/req)", "long")

	scfg := cfg.ServeConfig(p)
	scfg.PipelineCutoff = nBig
	s := oneShard(scfg)
	defer s.Close()
	opts := cfg.opts(p, par.Static, 0)
	seed := cfg.shapedSeed()

	for _, k := range kernel.All() {
		a := k.Gen(nBig, seed)
		pristine := append([]int64(nil), a.Xs...)
		restore := func() { copy(a.Xs, pristine) }
		one := cfg.timeRestored(restore, func() { k.Run(a, opts) })

		// One request record per slot of the timed burst, each with its
		// own copy of the input, so no request sees another's output.
		small := k.Gen(nSmall, seed)
		burst := make([]kernel.Args, reqs)
		for i := range burst {
			burst[i] = *small
			burst[i].Xs = make([]int64, len(small.Xs))
		}
		restoreBurst := func() {
			for i := range burst {
				copy(burst[i].Xs, small.Xs)
			}
		}
		restoreBurst()
		if err := s.CallBudget("e25", k, &burst[0], 0); err != nil {
			t.AddRowf(k.Name, len(k.Variants), perf.FormatDuration(one), "error: "+err.Error(), "-")
			continue
		}
		perReq := cfg.timeRestored(restoreBurst, func() {
			for i := range burst {
				_ = s.CallBudget("e25", k, &burst[i], 0)
			}
		}) / float64(reqs)

		long := "-"
		if k.Stream != nil {
			long = perf.FormatDuration(cfg.timeRestored(restore, func() { _ = s.CallBudget("e25", k, a, 0) }))
		}
		t.AddRowf(k.Name, len(k.Variants), perf.FormatDuration(one), perReq*1e6, long)
	}
	return t
}

// E26OpenLoop regenerates Table 16: the same server, the same request
// mix, the same offered load — measured two ways. The closed-loop row
// is the harness every earlier experiment used: clients issue, wait,
// issue again, so while a batch stalls the clients stop arriving and
// the stall's queueing delay is invisible to their percentiles
// (coordinated omission). Its achieved rate defines the offered load
// for the open-loop rows: arrivals drawn from a fixed schedule
// (constant and Poisson) fire on time regardless of server state, and
// each sample reports both an uncorrected latency (send→done, the
// closed-loop-comparable clock) and a corrected one (intended
// arrival→done, the honest clock). The p99 gap between the closed-loop
// row and the corrected open-loop columns is the measurement bug made
// visible. The final row adds an SLO deadline budget: the door and
// dispatcher refuse requests that cannot make it, trading a fraction
// of errors for a bounded tail — the refused column is that trade
// printed next to its benefit.
func E26OpenLoop(cfg Config) *perf.Table {
	const workers = 4
	const clients = 16
	const n = 2048
	t := perf.NewTable(
		"Table 16: coordinated omission — closed-loop vs open-loop at matched offered load, W=4",
		"mode", "reqs", "rate(r/s)", "ok", "refused", "p50(us)", "p99(us)", "p50corr(us)", "p99corr(us)")

	reqs := cfg.size(4000, 600)
	base := gen.Ints(n, gen.Uniform, cfg.WorkloadSeed())

	newServer := func(slo time.Duration) *serve.Sharded {
		scfg := cfg.ServeConfig(workers)
		scfg.SLO = slo
		return oneShard(scfg)
	}

	// Closed loop at full throttle: its achieved rate is the offered
	// load every open-loop row replays.
	srv := newServer(0)
	bufs := newReqBufs(clients, n)
	closed := loadgen.Closed(clients, reqs, func(c, i int) error {
		return sortOrHistogram(srv, serveTenants[c%len(serveTenants)], i, &bufs[c], base)
	})
	srv.Close()
	rate := float64(reqs) / closed.Wall.Seconds()
	crep := closed.Summarize(loadgen.Schedule{})
	closedP99 := crep.UncorrectedP99
	t.AddRowf("closed-loop", reqs, int(rate+0.5), crep.OK, crep.Errors,
		crep.UncorrectedP50*1e6, closedP99*1e6, "-", "-")

	// Open-loop rows at the matched rate. The SLO budget for the last
	// row is a few closed-loop p99s: loose enough that an unloaded
	// server never trips it, tight enough that omission-scale queueing
	// does.
	slo := time.Duration(4 * closedP99 * float64(time.Second))
	rows := []struct {
		name    string
		poisson bool
		slo     time.Duration
	}{
		{"open-loop const", false, 0},
		{"open-loop poisson", true, 0},
		{"open-loop poisson+slo", true, slo},
	}
	// Open-loop arrivals overlap without bound, so in-flight requests
	// draw their buffers from a pool instead of a per-client slot.
	pool := sync.Pool{New: func() any { return &newReqBufs(1, n)[0] }}
	for _, row := range rows {
		srv := newServer(row.slo)
		var sched loadgen.Schedule
		if row.poisson {
			sched = loadgen.Poisson(reqs, rate, cfg.WorkloadSeed())
		} else {
			sched = loadgen.Constant(reqs, rate)
		}
		res := loadgen.Run(sched, func(i int) error {
			bf := pool.Get().(*reqBufs)
			defer pool.Put(bf)
			return sortOrHistogram(srv, serveTenants[i%len(serveTenants)], i, bf, base)
		})
		srv.Close()
		rep := res.Summarize(sched)
		refused := res.Failed(func(err error) bool {
			return errors.Is(err, serve.ErrDeadlineExceeded) || errors.Is(err, serve.ErrRejected)
		})
		t.AddRowf(row.name, reqs, int(rep.OfferedRate+0.5), rep.OK, refused,
			rep.UncorrectedP50*1e6, rep.UncorrectedP99*1e6,
			rep.CorrectedP50*1e6, rep.CorrectedP99*1e6)
	}
	return t
}

// E27ResultCache regenerates Table 17: the same kernels served cold,
// warm and incrementally, idle and under load. The cold-idle column is
// the unloaded floor of the ordinary path — admission, batching, a
// full kernel run — and is the fair baseline for the cache's *compute*
// saving: against it, sort and top-k repay the probe many times over
// while scan and sum barely do, because the content fingerprint is
// itself an O(n) pass over the input and those kernels do little more
// than that themselves. The loaded columns are the serving story: with
// background tenants keeping every worker busy, a cold request queues
// behind in-flight batches while a warm hit is recognized at the door
// and restored without entering the queue at all, so the cold-load /
// warm-load ratio — the speedup column — is queueing bypass on top of
// compute elision and clears an order of magnitude for every kernel.
// The delta column updates a standing record through the kernel's
// incremental adapter (CallDeltaBudget) under the same load: a
// 16-element append rides the normal batch path, so it pays the queue
// but not the rerun, landing between the warm and cold columns. The
// idle column is a floor, so it takes the minimum over reps; the
// loaded columns are draws from a queueing distribution, where the
// minimum would just find the luckiest idle gap — they take the
// median, the representative wait.
func E27ResultCache(cfg Config) *perf.Table {
	const workers = 4
	const bgClients = 8
	const chunk = 16
	n := cfg.size(1<<16, 1<<12)
	reps := cfg.reps()
	t := perf.NewTable(
		"Table 17: result cache — cold vs warm-hit vs delta-update latency, idle and loaded, W=4",
		"kernel", "n", "cold-idle(us)", "cold-load(us)", "warm-load(us)", "delta-load(us)", "speedup")

	scfg := cfg.ServeConfig(workers)
	scfg.Cache = rescache.New(rescache.Config{Pool: cfg.Scratch})
	srv := oneShard(scfg)
	defer srv.Close()
	const tenant = "t"

	base := gen.Ints(n, gen.Uniform, cfg.WorkloadSeed())

	// Each case builds fresh Args around an input copy; resort is set
	// only for kernels whose hit restores an output *into* the input
	// slice (sort), where the next probe must re-present the original
	// bytes to land on the same fingerprint.
	cases := []struct {
		name    string
		newArgs func(xs []int64) *kernel.Args
		resort  bool
	}{
		{"sort", func(xs []int64) *kernel.Args {
			return &kernel.Args{Xs: xs}
		}, true},
		{"scan", func(xs []int64) *kernel.Args {
			return &kernel.Args{Xs: xs, Dst: make([]int64, len(xs))}
		}, false},
		{"sum", func(xs []int64) *kernel.Args {
			return &kernel.Args{Xs: xs}
		}, false},
		{"topk", func(xs []int64) *kernel.Args {
			return &kernel.Args{Xs: xs, K: 64, Dst: make([]int64, 64)}
		}, false},
	}

	// timeCall runs reps timed calls (setup outside the clock) and
	// reduces the successful samples with stat — min for idle floors,
	// median for loaded waits.
	timeCall := func(setup func(rep int) (*kernel.Args, *kernel.Kernel), delta bool, stat func([]time.Duration) time.Duration) time.Duration {
		samples := make([]time.Duration, 0, reps)
		for rep := 0; rep < reps; rep++ {
			a, k := setup(rep)
			var err error
			var d time.Duration
			if delta {
				app := gen.Ints(chunk, gen.Uniform, cfg.WorkloadSeed()+uint64(100+rep))
				t0 := time.Now()
				err = srv.CallDeltaBudget(tenant, k, a, &kernel.Delta{Append: app}, 0)
				d = time.Since(t0)
			} else {
				t0 := time.Now()
				err = srv.CallBudget(tenant, k, a, 0)
				d = time.Since(t0)
			}
			if err == nil {
				samples = append(samples, d)
			}
		}
		if len(samples) == 0 {
			return 0
		}
		return stat(samples)
	}
	minOf := func(ds []time.Duration) time.Duration {
		best := ds[0]
		for _, d := range ds[1:] {
			if d < best {
				best = d
			}
		}
		return best
	}
	medOf := func(ds []time.Duration) time.Duration {
		s := append([]time.Duration(nil), ds...)
		for i := 1; i < len(s); i++ { // insertion sort; reps is tiny
			for j := i; j > 0 && s[j] < s[j-1]; j-- {
				s[j], s[j-1] = s[j-1], s[j]
			}
		}
		return s[len(s)/2]
	}

	type row struct {
		name                   string
		idle, cold, warm, dlta time.Duration
		warmArgs               *kernel.Args
		k                      *kernel.Kernel
	}
	rows := make([]row, 0, len(cases))

	// coldSeed gives every cold rep of a kernel an input no other rep
	// of it sends, in either phase, so none can hit an entry an earlier
	// rep stored. Seed 0 is the warm base.
	coldSeed := func(phase, rep int) uint64 {
		return cfg.WorkloadSeed() + uint64(1+phase*reps+rep)
	}

	// Phase 1, idle: the cold floor (every rep a distinct input, so a
	// distinct fingerprint — the cache never short-circuits it, and
	// with room to spare it stores each result like any miss), then
	// prime one warm record per kernel. Two calls prime it: the first
	// stores while the cache has room, and were the cache full, its
	// first sighting would store nothing and the second call would
	// store. Either way the warm column hits from its first rep.
	for _, c := range cases {
		k := kernel.MustLookup(c.name)
		idle := timeCall(func(rep int) (*kernel.Args, *kernel.Kernel) {
			return c.newArgs(gen.Ints(n, gen.Uniform, coldSeed(0, rep))), k
		}, false, minOf)
		xs := make([]int64, n)
		a := c.newArgs(xs)
		primed := true
		for i := 0; i < 2 && primed; i++ {
			copy(xs, base) // sort's first call left xs sorted
			primed = srv.CallBudget(tenant, k, a, 0) == nil
		}
		if !primed {
			continue // row impossible; leave it out rather than lie
		}
		rows = append(rows, row{name: c.name, idle: idle, warmArgs: a, k: k})
	}

	// Phase 2, loaded: background tenants issue uncacheable requests
	// (histogram takes a bucket function, which the fingerprint cannot
	// hash) in a closed loop, keeping all workers busy for the whole
	// measurement window.
	stop := make(chan struct{})
	var bg sync.WaitGroup
	bucket := func(v int64) int { return int(uint64(v) % 256) }
	for b := 0; b < bgClients; b++ {
		bg.Add(1)
		go func(b int) {
			defer bg.Done()
			xs := gen.Ints(n, gen.Uniform, cfg.WorkloadSeed()+uint64(1000+b))
			hist := make([]int, 256)
			for {
				select {
				case <-stop:
					return
				default:
				}
				_ = serve.Histogram(srv, "bg", hist, xs, bucket)
			}
		}(b)
	}

	for i := range rows {
		r := &rows[i]
		c := cases[0]
		for _, cc := range cases {
			if cc.name == r.name {
				c = cc
			}
		}
		r.cold = timeCall(func(rep int) (*kernel.Args, *kernel.Kernel) {
			return c.newArgs(gen.Ints(n, gen.Uniform, coldSeed(1, rep))), r.k
		}, false, medOf)
		// Warm probes under the same load: the door restores the
		// primed record without entering the queue. For sort the hit
		// overwrote the input with the sorted output, so each probe
		// re-copies the original outside the clock.
		r.warm = timeCall(func(rep int) (*kernel.Args, *kernel.Kernel) {
			if c.resort {
				copy(r.warmArgs.Xs, base)
			}
			return r.warmArgs, r.k
		}, false, medOf)
		// The warm args now hold a current output record (sort left Xs
		// sorted, scan/sum/topk restored their outputs), so each delta
		// rep folds a fresh append through the incremental adapter.
		r.dlta = timeCall(func(rep int) (*kernel.Args, *kernel.Kernel) {
			return r.warmArgs, r.k
		}, true, medOf)
	}
	close(stop)
	bg.Wait()

	for _, r := range rows {
		t.AddRowf(r.name, n,
			float64(r.idle)/1e3, float64(r.cold)/1e3, float64(r.warm)/1e3,
			float64(r.dlta)/1e3, float64(r.cold)/float64(r.warm))
	}
	return t
}

// E28WireDoor regenerates Table 18: the same requests against the
// same server, submitted three ways — direct in-process calls, framed
// over a loopback TCP socket (one-shot responses), and framed with
// response streaming forced on (every reply crosses as chunk frames
// plus a geometry frame). The deltas are the protocol's own bill: the
// wire column adds two syscall-bounded frame copies and a scheduler
// handoff to the in-process floor, and the stream column adds the
// per-chunk write loop on top of that. Because the decoder aliases
// request payloads in place from connection-owned slabs, the gap
// stays flat in n for the kernels whose reply is small (sum) and
// grows only with the response bytes actually crossing for the rest —
// which is the zero-copy claim made measurable. Every column is an
// idle-path floor, so it takes the minimum over reps.
func E28WireDoor(cfg Config) *perf.Table {
	const workers = 4
	n := cfg.size(1<<16, 1<<12)
	reps := cfg.reps()
	t := perf.NewTable(
		"Table 18: wire front door — in-process vs framed socket vs chunk-streamed latency, W=4",
		"kernel", "n", "inproc(us)", "wire(us)", "wire-stream(us)", "wire-cost")

	srv := oneShard(cfg.ServeConfig(workers))
	defer srv.Close()
	// Two doors onto the one server: default thresholds (n-element
	// replies go back one-shot at these sizes), and streaming forced
	// down so every reply crosses chunked.
	l, err := wire.Listen("tcp", "127.0.0.1:0", srv, wire.Config{})
	if err != nil {
		return t
	}
	defer l.Close()
	ls, err := wire.Listen("tcp", "127.0.0.1:0", srv, wire.Config{StreamCutoff: 1024, StreamChunk: 16 << 10})
	if err != nil {
		return t
	}
	defer ls.Close()
	cl, err := wire.Dial("tcp", l.Addr().String())
	if err != nil {
		return t
	}
	defer cl.Close()
	cls, err := wire.Dial("tcp", ls.Addr().String())
	if err != nil {
		return t
	}
	defer cls.Close()

	const tenant = "t"
	const buckets = 256
	base := gen.Ints(n, gen.Uniform, cfg.WorkloadSeed())
	bucket := wire.CanonicalBucket(buckets)

	// Each case rebuilds its Args around a fresh copy of the input
	// outside the clock, so every rep does the same kernel work and
	// the cache-free request path is what gets timed.
	cases := []struct {
		name    string
		newArgs func(xs []int64) *kernel.Args
	}{
		{"sort", func(xs []int64) *kernel.Args { return &kernel.Args{Xs: xs} }},
		{"scan", func(xs []int64) *kernel.Args { return &kernel.Args{Xs: xs, Dst: make([]int64, len(xs))} }},
		{"sum", func(xs []int64) *kernel.Args { return &kernel.Args{Xs: xs} }},
		{"histogram", func(xs []int64) *kernel.Args {
			return &kernel.Args{Xs: xs, Hist: make([]int, buckets), Bucket: bucket}
		}},
	}

	timeFloor := func(f serve.Front, k *kernel.Kernel, newArgs func(xs []int64) *kernel.Args) time.Duration {
		best := time.Duration(0)
		xs := make([]int64, n)
		for rep := 0; rep < reps; rep++ {
			copy(xs, base)
			a := newArgs(xs)
			t0 := time.Now()
			err := f.CallBudget(tenant, k, a, 0)
			d := time.Since(t0)
			if err != nil {
				continue
			}
			if best == 0 || d < best {
				best = d
			}
		}
		return best
	}

	for _, c := range cases {
		k := kernel.MustLookup(c.name)
		inproc := timeFloor(srv, k, c.newArgs)
		wired := timeFloor(cl, k, c.newArgs)
		streamed := timeFloor(cls, k, c.newArgs)
		cost := 0.0
		if inproc > 0 {
			cost = float64(wired) / float64(inproc)
		}
		t.AddRowf(c.name, n,
			float64(inproc)/1e3, float64(wired)/1e3, float64(streamed)/1e3, cost)
	}
	return t
}

// E29LongRoute regenerates Table 19: what the long route costs and
// buys, measured at parserve's shard shape (1-worker executors). The
// traffic rows replay bench/'s wire_bulk mix in-process — rounds of
// (narrow nearly-sorted sort, wide uniform sort, scan) at nShort plus
// one wide uniform sort at nLong, two closed-loop callers, on two
// 1-worker shards — with Config.PipelineCutoff off, below nLong (the
// default's side: long sorts run their adapter on the caller's
// goroutine) and above it (they queue into batch slots like a short
// request). Short p50 is the head-of-line guard the route exists for;
// long p50 is what the long request itself pays. Client latency
// includes refreshing the request's input from the pool. Every
// long-route adapter is one call of its kernel, so the table has no
// adapter-vs-one-shot rows; it prints numbers and asserts nothing about
// time.
func E29LongRoute(cfg Config) *perf.Table {
	nShort := cfg.size(1<<16, 1<<11)
	nLong := 4 * nShort
	reqs := cfg.size(400, 48)
	t := perf.NewTable(
		fmt.Sprintf("Table 19: the long route on 1-worker shards (traffic: 3 short n=%d : 1 long n=%d, 2 callers, %d reqs)",
			nShort, nLong, reqs),
		"case", "n", "short p50", "short p90", "long p50")

	sortK, scanK := kernel.MustLookup("sort"), kernel.MustLookup("scan")
	wide := cfg.WorkloadSeed() &^ 3 // seed%4 == 0: uniform, wide keys
	round := []*kernel.Args{
		sortK.Gen(nShort, wide+1), // nearly sorted, 16-bit keys
		sortK.Gen(nShort, wide),
		scanK.Gen(nShort, wide),
		sortK.Gen(nLong, wide+16),
	}
	const callers = 2
	bufs := newReqBufs(callers, nLong)

	for _, cutoff := range []int{-1, nLong / 2, 2 * nLong} {
		scfg := cfg.ServeConfig(1)
		scfg.PipelineCutoff = cutoff
		g := serve.NewSharded(serve.ShardedConfig{Shards: 2, ShardProcs: 1, Config: scfg})
		res := loadgen.Closed(callers, reqs, func(c, i int) error {
			in, b := round[i%len(round)], &bufs[c]
			n := len(in.Xs)
			copy(b.xs[:n], in.Xs)
			tenant := serveTenants[i/len(round)%len(serveTenants)]
			if i%len(round) == 2 {
				return serve.Scan(g, tenant, b.dst[:n], b.xs[:n])
			}
			return serve.Sort(g, tenant, b.xs[:n])
		})
		g.Close()
		var short, long []float64
		for i, sm := range res.Samples {
			if i%len(round) == len(round)-1 {
				long = append(long, sm.Uncorrected().Seconds())
			} else {
				short = append(short, sm.Uncorrected().Seconds())
			}
		}
		name := "cutoff off"
		if cutoff > 0 {
			name = fmt.Sprintf("cutoff %d", cutoff)
		}
		t.AddRowf(name, fmt.Sprintf("%d:%d", nShort, nLong),
			okOr(&res, perf.FormatDuration(perf.Percentile(short, 50))),
			perf.FormatDuration(perf.Percentile(short, 90)),
			perf.FormatDuration(perf.Percentile(long, 50)))
	}
	return t
}
