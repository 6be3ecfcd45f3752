// Command parbench regenerates the evaluation's tables and figures
// (experiments E1–E23; see DESIGN.md for the index) and hosts the
// runtime traffic demos.
//
// Usage:
//
//	parbench -exp all            # run the whole suite
//	parbench -exp E5,E6          # selected experiments
//	parbench -exp E2 -quick      # smoke-size problems
//	parbench -exp E1 -csv out/   # also write CSV per experiment
//	parbench -list               # show the experiment index
//	parbench -kernels            # show the kernel registry index
//	parbench -kernel gups        # one kernel through every ladder
//	parbench -pipeline           # streaming-pipeline traffic demo
//	parbench -serve              # multi-tenant request-serving demo
//	parbench -serve -openloop -rate 2000 -slo 10ms
//	                             # open-loop schedule-driven traffic
//	parbench -serve -wire loopback
//	                             # same demo over a real socket
//
// Flags -procs, -vprocs, -reps and -seed control the sweep; -executor
// selects the dispatch runtime (shared persistent pool, a dedicated
// pool, or goroutine-per-call spawning), -scratch toggles the
// scratch-arena buffer reuse, and -adapt=on replaces every hard-coded
// grain/policy/cutoff with the online load-aware tuning runtime
// (internal/adapt), so the runtime-overhead, GC-pressure and
// self-tuning deltas are all observable from the CLI. -serve runs
// skewed multi-tenant traffic (one hot tenant, three light ones)
// through the batched admission-control server (internal/serve) and
// prints its admission/batching counters, client-observed latency
// percentiles and the per-tenant fair-share split; its closed-loop
// clients retry rejected requests under capped exponential backoff
// with rng jitter and report retry and error counts per tenant, so
// the printed percentiles' denominator is always every issued
// request. -openloop replaces the closed-loop clients with the
// internal/loadgen arrival-schedule generator (-rate offered req/s,
// -arrival const|poisson) and prints corrected (intended-arrival) and
// uncorrected (send-time) percentiles side by side — the honest
// tail-latency mode. -slo gives every request a deadline budget: the
// server refuses requests that cannot make it (door prediction or
// queue expiry) instead of serving them late. A summary line after
// the experiments reports the executor's steal counters next to the
// scratch pool's hit/miss/bytes gauges (plus, with -adapt=on, the
// controller's site/exploration/convergence counters). Unknown flag
// values are rejected with a usage error, never silently defaulted;
// -pipeline and -serve are mutually exclusive, and the open-loop
// knobs require the modes they refine (-openloop needs -serve; -rate
// and -arrival need -openloop; -slo needs -serve). -wire reruns a
// -serve demo over the binary wire protocol (internal/wire) instead
// of in-process calls: 'loopback' spins an in-process listener on a
// real TCP socket (the CI smoke path), 'host:port' or 'unix:PATH'
// target a running parserve — where -cache is refused, because cache
// invalidation (BumpGeneration) is server-side state the protocol
// does not carry.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/adapt"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/kernel"
	"repro/internal/loadgen"
	"repro/internal/par"
	"repro/internal/perf"
	"repro/internal/pipeline"
	"repro/internal/rescache"
	"repro/internal/rng"
	"repro/internal/scratch"
	"repro/internal/serve"
	"repro/internal/wire"
)

func main() {
	var (
		expFlag   = flag.String("exp", "all", "comma-separated experiment ids (E1..E14) or 'all'")
		quick     = flag.Bool("quick", false, "use smoke-test problem sizes")
		procsFlag = flag.String("procs", "", "comma-separated worker counts (default 1,2,4,8)")
		vprocs    = flag.String("vprocs", "", "comma-separated virtual BSP processor counts")
		reps      = flag.Int("reps", 0, "measured repetitions per point (default 3)")
		seed      = flag.Uint64("seed", 0, "workload seed (default 42)")
		csvDir    = flag.String("csv", "", "directory to also write one CSV per experiment")
		list      = flag.Bool("list", false, "list the experiment index and exit")
		executor  = flag.String("executor", "pooled",
			"dispatch runtime: 'pooled' (shared persistent pool), 'dedicated' (fresh pool), or 'spawn' (goroutine per call)")
		scratchMode = flag.String("scratch", "on",
			"scratch-arena buffer reuse: 'on' (pooled temporaries) or 'off' (fresh allocation per call)")
		adaptMode = flag.String("adapt", "off",
			"online load-aware tuning: 'on' (grain/policy/cutoffs picked per call site by the adapt runtime) or 'off'")
		pipelineMode = flag.Bool("pipeline", false,
			"run the streaming-pipeline traffic demo (gen→map→filter→sort→histogram) and print its throughput/occupancy stats instead of experiments")
		serveMode = flag.Bool("serve", false,
			"run the multi-tenant request-serving traffic demo (batched admission control over mixed sort/histogram/scan/sum requests) and print its throughput/latency-percentile stats instead of experiments")
		shardsFlag = flag.Int("shards", 0,
			"with -serve: shard the server into N executor shards with tenant-affinity routing and diffusive migration, and print per-shard stats (0 = unsharded; sharded mode builds its own per-shard executors, so -executor is ignored)")
		openLoop = flag.Bool("openloop", false,
			"with -serve: drive open-loop schedule-driven traffic (internal/loadgen) instead of closed-loop clients, and print corrected vs uncorrected latency percentiles side by side")
		rateFlag = flag.Float64("rate", 0,
			"with -openloop: offered load in requests per second (default 2000)")
		arrivalFlag = flag.String("arrival", "",
			"with -openloop: arrival process, 'const' (fixed spacing) or 'poisson' (bursty; the default)")
		cacheFlag = flag.String("cache", "",
			"with -serve: 'on' puts the generation-stamped result cache in front of the server (repeat requests are served from cached output with zero kernel work; cache stats printed) or 'off' (the default)")
		deltaFlag = flag.String("delta", "",
			"with -serve -cache on (closed-loop only): 'on' mixes incremental standing-query traffic into the demo — each client maintains a sorted record through delta appends instead of re-sorting — or 'off' (the default)")
		sloFlag = flag.Duration("slo", 0,
			"with -serve: per-request deadline budget (e.g. 10ms); requests predicted or observed to miss it are refused with ErrDeadlineExceeded instead of served late (0 = no deadlines)")
		wireFlag = flag.String("wire", "",
			"with -serve: drive the demo over the binary wire protocol instead of in-process calls — 'loopback' spins an in-process listener on a real TCP socket, 'host:port' or 'unix:PATH' targets a running parserve")
		kernelsFlag = flag.Bool("kernels", false, "list the kernel registry (name, variants, stream/relation wiring) and exit")
		kernelFlag  = flag.String("kernel", "",
			"run one registered kernel through every ladder — dispatched one-shot vs serial oracle, each variant, and the serve batch path — and print verified timings instead of experiments")
	)
	flag.Parse()

	if *pipelineMode && *serveMode {
		fatalf("-pipeline and -serve are mutually exclusive")
	}
	if *shardsFlag < 0 {
		fatalf("bad -shards %d: want >= 0", *shardsFlag)
	}
	if *shardsFlag > 0 && !*serveMode {
		fatalf("-shards requires -serve")
	}
	if *openLoop && !*serveMode {
		fatalf("-openloop requires -serve")
	}
	if *sloFlag != 0 && !*serveMode {
		fatalf("-slo requires -serve")
	}
	if *sloFlag < 0 {
		fatalf("bad -slo %v: want >= 0", *sloFlag)
	}
	if *rateFlag != 0 && !*openLoop {
		fatalf("-rate requires -openloop")
	}
	if *rateFlag < 0 {
		fatalf("bad -rate %v: want > 0", *rateFlag)
	}
	if *arrivalFlag != "" && !*openLoop {
		fatalf("-arrival requires -openloop")
	}
	poissonArrivals, arrErr := arrivalFor(*arrivalFlag)
	if arrErr != nil {
		fatalf("%v", arrErr)
	}
	cacheOn, cacheErr := cacheFor(*cacheFlag)
	if cacheErr != nil {
		fatalf("%v", cacheErr)
	}
	deltaOn, deltaErr := deltaFor(*deltaFlag)
	if deltaErr != nil {
		fatalf("%v", deltaErr)
	}
	if *cacheFlag != "" && !*serveMode {
		fatalf("-cache requires -serve")
	}
	if *deltaFlag != "" && !*serveMode {
		fatalf("-delta requires -serve")
	}
	if deltaOn && !cacheOn {
		fatalf("-delta on requires -cache on (the incremental demo measures the cache and delta paths together)")
	}
	if deltaOn && *openLoop {
		fatalf("-delta on requires the closed-loop demo (drop -openloop: standing-query records are per-client state)")
	}
	if *wireFlag != "" && !*serveMode {
		fatalf("-wire requires -serve")
	}
	if cacheOn && *wireFlag != "" && *wireFlag != "loopback" {
		fatalf("-cache on requires -wire loopback or in-process (BumpGeneration is server-side state the wire protocol does not carry)")
	}

	if *list {
		fmt.Println("id    ref       title")
		for _, e := range core.Experiments {
			fmt.Printf("%-5s %-9s %s\n", e.ID, e.Ref, e.Title)
		}
		return
	}

	if *kernelsFlag {
		printKernels(os.Stdout)
		return
	}

	cfg := core.Config{Quick: *quick, Reps: *reps, Seed: *seed}
	var err error
	if cfg.Executor, err = executorFor(*executor); err != nil {
		fatalf("%v", err)
	}
	if cfg.Scratch, err = scratchFor(*scratchMode); err != nil {
		fatalf("%v", err)
	}
	if cfg.Adaptive, err = adaptFor(*adaptMode); err != nil {
		fatalf("%v", err)
	}
	if cfg.Procs, err = parseInts(*procsFlag); err != nil {
		fatalf("bad -procs: %v", err)
	}
	if cfg.VProcs, err = parseInts(*vprocs); err != nil {
		fatalf("bad -vprocs: %v", err)
	}

	if *kernelFlag != "" {
		if err := runKernelDemo(cfg, *kernelFlag, os.Stdout); err != nil {
			fatalf("kernel: %v", err)
		}
		printRuntimeStats(cfg)
		return
	}

	if *pipelineMode {
		if err := runPipelineDemo(cfg, os.Stdout); err != nil {
			fatalf("pipeline: %v", err)
		}
		printRuntimeStats(cfg)
		return
	}

	if *serveMode {
		if *openLoop {
			rate := *rateFlag
			if rate == 0 {
				rate = 2000
			}
			if err := runOpenLoopDemo(cfg, *shardsFlag, rate, poissonArrivals, *sloFlag, cacheOn, *wireFlag, os.Stdout); err != nil {
				fatalf("serve: %v", err)
			}
		} else if err := runServeDemo(cfg, *shardsFlag, *sloFlag, cacheOn, deltaOn, *wireFlag, os.Stdout); err != nil {
			fatalf("serve: %v", err)
		}
		printRuntimeStats(cfg)
		return
	}

	ids := selectIDs(*expFlag)
	if len(ids) == 0 {
		fatalf("no experiments selected; try -list")
	}
	for _, id := range ids {
		e, ok := core.ByID(id)
		if !ok {
			fatalf("unknown experiment %q; try -list", id)
		}
		start := time.Now()
		t := e.Run(cfg)
		fmt.Printf("== %s (%s) — %s [%s]\n", e.ID, e.Ref, e.Title, time.Since(start).Round(time.Millisecond))
		if err := t.Render(os.Stdout); err != nil {
			fatalf("render: %v", err)
		}
		fmt.Println()
		if *csvDir != "" {
			if err := writeCSV(*csvDir, e.ID, t); err != nil {
				fatalf("csv: %v", err)
			}
		}
	}
	printRuntimeStats(cfg)
}

// runPipelineDemo drives the ISSUE's reference analytics chain — a
// generated stream mapped, filtered, sorted and histogrammed — through
// the streaming pipeline runtime, then prints the per-stage breakdown
// and the throughput/occupancy stats line. It honors the -executor,
// -scratch, -adapt and -quick flags through cfg.
func runPipelineDemo(cfg core.Config, w io.Writer) error {
	n := 1 << 22
	if cfg.Quick {
		n = 1 << 16
	}
	pOpts := par.Options{Executor: cfg.Executor, Scratch: cfg.Scratch}
	if len(cfg.Procs) > 0 {
		pOpts.Procs = cfg.Procs[len(cfg.Procs)-1]
	}
	if cfg.Adaptive {
		pOpts.Adaptive = adapt.Default()
		if pOpts.Procs <= 1 && runtime.GOMAXPROCS(0) == 1 {
			// One-core boxes: give the controller a lattice to tune
			// (the executor's caller participation still completes all
			// slots), otherwise the adapt stats line reads all zero.
			pOpts.Procs = 4
		}
	} else {
		pOpts.SerialCutoff = pipeline.DefaultChunkSize
	}
	hist := make([]int, pipeline.DemoBuckets)
	p := pipeline.New(pipeline.Config{Opts: pOpts}).
		FromFunc(n, pipeline.DemoGen).
		Map(pipeline.DemoMap).
		Filter(pipeline.DemoPred).
		Sort().
		ToHistogram(hist, pipeline.DemoBucket)
	if err := p.Run(); err != nil {
		return err
	}
	s := p.Stats()
	fmt.Fprintf(w, "== streaming pipeline demo — gen→map→filter→sort→histogram, n=%d\n", n)
	for _, st := range s.Stages {
		fmt.Fprintf(w, "  stage %-10s chunks=%-6d elems=%-9d busy=%s\n",
			st.Name, st.Chunks, st.Elems, st.Busy.Round(time.Microsecond))
	}
	fmt.Fprintf(w, "pipeline: elems=%d chunks=%d wall=%s throughput=%.1f Melems/s occupancy=%.2f\n",
		s.SourceElems, s.Chunks, s.Wall.Round(time.Microsecond),
		s.Throughput()/1e6, s.Occupancy)
	return nil
}

// serveAdmin is the server-side state a demo reads or pokes that the
// wire protocol does not carry: nil against a remote parserve, the
// in-process server (single or sharded) otherwise.
type serveAdmin interface {
	BumpGeneration(tenant string) uint64
	TenantStats() []serve.TenantStats
}

// demoFront bundles whichever server flavor a -serve demo built, with
// the bits both the closed-loop and open-loop drivers need: front is
// where the traffic goes (the server itself, or a wire client pool in
// front of it), admin the local server behind it.
type demoFront struct {
	front   serve.Front
	admin   serveAdmin
	single  *serve.Server
	sharded *serve.Sharded
	workers int
	scfg    serve.Config
	// Wire mode: wl is the loopback listener (nil against a remote
	// parserve, and in plain in-process mode), wf the client pool the
	// demo traffic runs through.
	wl *wire.Listener
	wf *wireFront
}

// buildServeFront constructs a demo server: one batched Server, or a
// sharded group when shards > 0 (tenants hash to home shards, the
// diffusive balancer migrates backlog; each shard owns its executor
// and scratch pool, so cfg.Executor is unused there). slo threads the
// deadline budget into the admission ladder; maxQueue overrides the
// per-tenant queue bound (0 = serve's default). A non-empty wireAddr
// reroutes the demo traffic over the binary wire protocol: "loopback"
// spins an in-process listener on a real TCP socket in front of the
// server just built, any other value targets a running parserve (and
// no local server is built at all — the admission counters live on
// the far side).
func buildServeFront(cfg core.Config, shards int, slo time.Duration, maxQueue int, cacheOn bool, wireAddr string) *demoFront {
	if wireAddr != "" && wireAddr != "loopback" {
		network, addr := wireTarget(wireAddr)
		wf := &wireFront{network: network, addr: addr}
		return &demoFront{front: wf, wf: wf}
	}
	workers := 4
	if len(cfg.Procs) > 0 {
		workers = cfg.Procs[len(cfg.Procs)-1]
	}
	scfg := serve.Config{
		Executor:       cfg.Executor,
		Scratch:        cfg.Scratch,
		Workers:        workers,
		MaxQueue:       maxQueue,
		PipelineCutoff: 1 << 15, // the demos' "long request" threshold
		SLO:            slo,
	}
	if cacheOn {
		// One cache in front of everything; a sharded server's shards
		// all share it (the Config template copies the pointer).
		scfg.Cache = rescache.New(rescache.Config{Pool: cfg.Scratch})
	}
	if cfg.Adaptive {
		scfg.Adaptive = adapt.Default()
	}
	d := &demoFront{workers: workers, scfg: scfg}
	if shards > 0 {
		procs := workers / shards
		if procs < 1 {
			procs = 1
		}
		sc := scfg
		sc.Executor = nil // one executor per shard
		sc.Scratch = nil  // one scratch pool per shard
		sc.Adaptive = nil // AdaptivePerShard gives each shard its own
		sc.Workers = procs
		d.sharded = serve.NewSharded(serve.ShardedConfig{
			Shards:            shards,
			ShardProcs:        procs,
			AdaptivePerShard:  cfg.Adaptive,
			MigrateHysteresis: 2, // small: the demo queues are shallow
			Config:            sc,
		})
		d.front, d.admin = d.sharded, d.sharded
	} else {
		d.single = serve.New(scfg)
		d.front, d.admin = d.single, d.single
	}
	if wireAddr == "loopback" {
		wl, err := wire.Listen("tcp", "127.0.0.1:0", d.front, wire.Config{})
		if err != nil {
			fatalf("wire: listen: %v", err)
		}
		d.wl = wl
		d.wf = &wireFront{network: "tcp", addr: wl.Addr().String()}
		d.front = d.wf
	}
	return d
}

func (d *demoFront) close() {
	if d.wf != nil {
		d.wf.closeClients()
	}
	if d.wl != nil {
		d.wl.Close()
	}
	if d.sharded != nil {
		d.sharded.Close()
	} else if d.single != nil {
		d.single.Close()
	}
}

func (d *demoFront) stats() serve.Stats {
	if d.sharded != nil {
		return d.sharded.Stats().Aggregate
	}
	return d.single.Stats()
}

// printServeStats prints the admission/batching/deadline counters
// line plus, for sharded servers, the migration and per-shard lines.
func (d *demoFront) printServeStats(w io.Writer) {
	if d.wf != nil {
		if d.wl == nil {
			fmt.Fprintf(w, "wire: remote %s %s — admission counters live on the parserve side\n",
				d.wf.network, d.wf.addr)
			return
		}
		ws := d.wl.Stats()
		fmt.Fprintf(w, "wire: loopback %s | conns=%d requests=%d responses=%d chunks=%d errors=%d\n",
			d.wf.addr, ws.Conns, ws.Requests, ws.Responses, ws.Chunks, ws.Errors)
	}
	st := d.stats()
	avg := 0.0
	if st.Batches > 0 {
		avg = float64(st.BatchedRequests) / float64(st.Batches)
	}
	fmt.Fprintf(w, "serve: accepted=%d completed=%d rejected=%d | batches=%d reqs/batch=%.1f maxbatch=%d parallel=%d serial=%d | shed=%d degraded=%d pipelined=%d | dlrej=%d expired=%d\n",
		st.Accepted, st.Completed, st.Rejected,
		st.Batches, avg, st.MaxBatch, st.ParallelBatches, st.SerialBatches,
		st.Shed, st.Degraded, st.Pipelined, st.DeadlineRejected, st.Expired)
	if c := d.scfg.Cache; c != nil {
		cs := c.Stats()
		hitRate := 0.0
		if st.CacheHits+st.CacheMisses > 0 {
			hitRate = float64(st.CacheHits) / float64(st.CacheHits+st.CacheMisses)
		}
		fmt.Fprintf(w, "cache: hits=%d misses=%d hitrate=%.2f | entries=%d bytes=%d inserts=%d evictions=%d invalidations=%d\n",
			st.CacheHits, st.CacheMisses, hitRate,
			cs.Entries, cs.Bytes, cs.Inserts, cs.Evictions, cs.Invalidations)
	}
	if d.sharded != nil {
		sst := d.sharded.Stats()
		fmt.Fprintf(w, "shards: migrations=%d migrated=%d\n", sst.Migrations, sst.Migrated)
		for i, ss := range sst.PerShard {
			fmt.Fprintf(w, "shard %d: accepted=%-6d completed=%-6d batches=%-5d migrated in=%-4d out=%-4d occupancy=%.2f\n",
				i, ss.Accepted, ss.Completed, ss.Batches, ss.MigratedIn, ss.MigratedOut,
				d.sharded.Executors().ShardOccupancy(i))
		}
	}
}

// demoTenants is the demo traffic mix: 14 slots over 4 tenants, "hot"
// holding 8 of them and t1..t3 two each.
var demoTenants = []string{
	"hot", "hot", "hot", "hot", "hot", "hot", "hot", "hot",
	"t1", "t1", "t2", "t2", "t3", "t3",
}

// demoTenantNames are the distinct names of demoTenants, in print
// order; demoTenantIdx maps a name back to its slot for the per-tenant
// retry counters.
var demoTenantNames = []string{"hot", "t1", "t2", "t3"}

func demoTenantIdx(name string) int {
	for i, n := range demoTenantNames {
		if n == name {
			return i
		}
	}
	return 0
}

// demoPayload derives the demo's shared 2K-element request payload.
func demoPayload(n int, seed uint64) []int64 {
	base := make([]int64, n)
	for i := range base {
		base[i] = int64((uint64(i)*2654435761 + seed) % 100003)
	}
	return base
}

// runServeDemo drives closed-loop multi-tenant request traffic — one
// hot tenant with 8 clients and three light tenants with 2 each,
// issuing mixed 2K-element sort/histogram/scan/sum requests plus an
// occasional long sort that routes through the streaming pipeline —
// through the request-serving runtime, then prints the server's
// admission/batching counters, client-observed latency percentiles,
// request throughput, and the per-tenant fair-share split. Rejected
// requests are retried under capped exponential backoff with rng
// jitter (a fixed sleep would wake every backpressured client in
// lockstep and re-flood the door); unexpected errors are counted and
// reported rather than silently shrinking the sample, so the printed
// percentiles' denominator is every issued request. With shards > 0
// the traffic runs through the sharded server instead and per-shard
// stats lines are printed. It honors the -executor, -scratch, -adapt,
// -procs and -quick flags through cfg. Closed-loop percentiles
// understate the tail under saturation (coordinated omission): the
// -openloop mode exists to print the honest number.
// With cacheOn the result cache fronts the server (most of the demo's
// repeated-payload requests become hits) and with deltaOn each client
// additionally maintains a standing sorted record through
// CallDeltaBudget appends — the incremental path — instead of
// re-sorting from scratch.
func runServeDemo(cfg core.Config, shards int, slo time.Duration, cacheOn, deltaOn bool, wireAddr string, w io.Writer) error {
	// Small queue bound: lets the hot tenant's backpressure show.
	d := buildServeFront(cfg, shards, slo, 4, cacheOn, wireAddr)
	defer d.close()
	srv := d.front

	total := 20000
	if cfg.Quick {
		total = 2000
	}
	const n = 2048
	seed := cfg.Seed
	if seed == 0 {
		seed = 42
	}
	base := demoPayload(n, seed)
	const backoffMin, backoffMax = 20 * time.Microsecond, 2 * time.Millisecond
	var next atomic.Int64
	var retried, errored, deadlined, deltas atomic.Int64
	tenantRetries := make([]atomic.Int64, len(demoTenantNames))
	lats := make([][]float64, len(demoTenants))
	var wg sync.WaitGroup
	start := time.Now()
	for c, tenant := range demoTenants {
		wg.Add(1)
		go func(c int, tenant string) {
			defer wg.Done()
			rg := rng.New(seed + uint64(c))
			xs := make([]int64, n)
			dst := make([]int64, n)
			hist := make([]int, 1024)
			var big []int64 // lazily sized for the occasional long sort
			bucket := func(v int64) int { return int(uint64(v) % 1024) }
			tIdx := demoTenantIdx(tenant)
			backoff := backoffMin
			// Standing-query state for -delta traffic: a sorted record
			// this client grows through delta appends, re-seeded
			// (full sort) whenever it outgrows its budget.
			kSort := kernel.MustLookup("sort")
			var standing kernel.Args
			chunk := make([]int64, 16)
			for {
				i := int(next.Add(1)) - 1
				if i >= total {
					return
				}
				if cacheOn && i == total/2 {
					// Midway, one tenant's data "changes": its cached
					// entries die at once and the invalidations
					// counter in the stats line goes live.
					d.admin.BumpGeneration("t2")
				}
				copy(xs, base)
				t0 := time.Now()
				for {
					var err error
					switch {
					case deltaOn && i%8 == 5:
						if len(standing.Xs) == 0 || len(standing.Xs) > 4*n {
							standing.Xs = append(standing.Xs[:0], base...)
							if err = serve.Sort(srv, tenant, standing.Xs); err != nil {
								standing.Xs = standing.Xs[:0] // not sorted; re-seed on retry
								break
							}
						}
						for j := range chunk {
							chunk[j] = int64(rg.Uint64n(100003))
						}
						err = srv.CallDeltaBudget(tenant, kSort, &standing, &kernel.Delta{Append: chunk}, 0)
						if err == nil {
							deltas.Add(1)
						}
					case i%512 == 511:
						if big == nil {
							big = make([]int64, d.scfg.PipelineCutoff)
						}
						for j := range big {
							big[j] = base[j%n]
						}
						err = serve.Sort(srv, tenant, big)
					case i%4 == 0:
						err = serve.Sort(srv, tenant, xs)
					case i%4 == 1:
						err = serve.Histogram(srv, tenant, hist, xs, bucket)
					case i%4 == 2:
						err = serve.Scan(srv, tenant, dst, xs)
					default:
						_, err = serve.Sum(srv, tenant, xs)
					}
					if errors.Is(err, serve.ErrRejected) || errors.Is(err, serve.ErrDeadlineExceeded) {
						// Backpressure: back off and retry the same
						// request — the latency sample keeps accruing,
						// so the tail reflects the retries. Capped
						// exponential with equal jitter: half the
						// window is deterministic, half uniform, so
						// backpressured clients fan out instead of
						// waking in lockstep and re-flooding the door.
						retried.Add(1)
						tenantRetries[tIdx].Add(1)
						if errors.Is(err, serve.ErrDeadlineExceeded) {
							deadlined.Add(1)
						}
						time.Sleep(backoff/2 + time.Duration(rg.Uint64n(uint64(backoff)/2+1)))
						if backoff *= 2; backoff > backoffMax {
							backoff = backoffMax
						}
						continue
					}
					if err != nil {
						// Count and move on: a dying client would
						// silently shrink the sample and flatter every
						// percentile printed below.
						errored.Add(1)
						break
					}
					backoff = backoffMin
					lats[c] = append(lats[c], time.Since(t0).Seconds())
					break
				}
			}
		}(c, tenant)
	}
	wg.Wait()
	wall := time.Since(start)

	var all []float64
	for _, l := range lats {
		all = append(all, l...)
	}
	switch {
	case d.sharded != nil:
		fmt.Fprintf(w, "== request-serving traffic demo — 4 tenants (hot ×8 clients, t1..t3 ×2), %d shards × W=%d, %d requests\n",
			d.sharded.Shards(), d.sharded.Executors().Shard(0).Procs(), total)
	case d.single != nil:
		fmt.Fprintf(w, "== request-serving traffic demo — 4 tenants (hot ×8 clients, t1..t3 ×2), W=%d, %d requests\n",
			d.workers, total)
	default:
		fmt.Fprintf(w, "== request-serving traffic demo — 4 tenants (hot ×8 clients, t1..t3 ×2), remote server, %d requests\n",
			total)
	}
	d.printServeStats(w)
	fmt.Fprintf(w, "clients: issued=%d ok=%d errored=%d retried=%d (hot=%d t1=%d t2=%d t3=%d) deadline-refused=%d",
		total, len(all), errored.Load(), retried.Load(),
		tenantRetries[0].Load(), tenantRetries[1].Load(),
		tenantRetries[2].Load(), tenantRetries[3].Load(), deadlined.Load())
	if deltaOn {
		fmt.Fprintf(w, " delta-updates=%d", deltas.Load())
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "latency: p50=%s p95=%s p99=%s | throughput=%.0f req/s over %s\n",
		perf.FormatDuration(perf.Percentile(all, 50)),
		perf.FormatDuration(perf.Percentile(all, 95)),
		perf.FormatDuration(perf.Percentile(all, 99)),
		float64(len(all))/wall.Seconds(), wall.Round(time.Millisecond))
	printTenantStats(w, d.admin)
	if len(all) == 0 {
		// Errored clients keep serving so the denominator stays
		// honest, but a run where *nothing* succeeded is a dead
		// server, not a demo — exiting 0 here would let a CI smoke
		// against an unreachable backend pass silently.
		return fmt.Errorf("no request succeeded (%d issued, %d errored) — backend unreachable or every call failed", total, errored.Load())
	}
	return nil
}

// printTenantStats prints the per-tenant fair-share split including
// the deadline counters; against a remote server (nil admin) that
// state lives on the far side and nothing is printed.
func printTenantStats(w io.Writer, admin serveAdmin) {
	if admin == nil {
		return
	}
	for _, ts := range admin.TenantStats() {
		fmt.Fprintf(w, "tenant %-4s accepted=%-6d completed=%-6d rejected=%-5d dlrej=%-5d expired=%-3d cachehits=%d\n",
			ts.Name, ts.Accepted, ts.Completed, ts.Rejected, ts.DeadlineRejected, ts.Expired, ts.CacheHits)
	}
}

// runOpenLoopDemo drives the same tenant mix through the server from
// a fixed open-loop arrival schedule (internal/loadgen): requests
// fire at their scheduled instants whether or not earlier ones have
// finished, so a stalled batch cannot slow the offered load down, and
// every sample carries two latencies — uncorrected (send→done, what a
// closed-loop client would have measured) and corrected
// (intended-arrival→done, charging queue delay to the system). Both
// percentile rows are printed side by side; the corrected row is the
// honest one and the gap between them is the coordinated-omission
// error made visible. Open-loop clients never retry: a rejected or
// deadline-refused arrival is an error by design, counted in the
// clients line. The queue bound stays at serve's default so queueing
// (the thing the corrected clock exists to see) is not clipped by the
// demo's backpressure setting.
func runOpenLoopDemo(cfg core.Config, shards int, rate float64, poisson bool, slo time.Duration, cacheOn bool, wireAddr string, w io.Writer) error {
	d := buildServeFront(cfg, shards, slo, 0, cacheOn, wireAddr)
	defer d.close()
	srv := d.front

	total := 20000
	if cfg.Quick {
		total = 2000
	}
	const n = 2048
	seed := cfg.Seed
	if seed == 0 {
		seed = 42
	}
	base := demoPayload(n, seed)

	arrival := "const"
	var sched loadgen.Schedule
	if poisson {
		arrival = "poisson"
		sched = loadgen.Poisson(total, rate, seed)
	} else {
		sched = loadgen.Constant(total, rate)
	}
	// Open-loop arrivals overlap, so in-flight requests each need
	// their own payload buffers (harness overhead, pooled).
	type bufs struct {
		xs, dst []int64
		hist    []int
	}
	pool := sync.Pool{New: func() any {
		return &bufs{xs: make([]int64, n), dst: make([]int64, n), hist: make([]int, 1024)}
	}}
	bucket := func(v int64) int { return int(uint64(v) % 1024) }
	res := loadgen.Run(sched, func(i int) error {
		bf := pool.Get().(*bufs)
		defer pool.Put(bf)
		copy(bf.xs, base)
		tenant := demoTenants[i%len(demoTenants)]
		switch i % 4 {
		case 0:
			return serve.Sort(srv, tenant, bf.xs)
		case 1:
			return serve.Histogram(srv, tenant, bf.hist, bf.xs, bucket)
		case 2:
			return serve.Scan(srv, tenant, bf.dst, bf.xs)
		default:
			_, err := serve.Sum(srv, tenant, bf.xs)
			return err
		}
	})

	rep := res.Summarize(sched)
	rejected := res.Failed(func(err error) bool { return errors.Is(err, serve.ErrRejected) })
	deadlined := res.Failed(func(err error) bool { return errors.Is(err, serve.ErrDeadlineExceeded) })
	other := rep.Errors - rejected - deadlined
	switch {
	case d.sharded != nil:
		fmt.Fprintf(w, "== open-loop serving demo — 4 tenants (hot-weighted), %d shards × W=%d, %d arrivals at %.0f req/s (%s), slo=%v\n",
			d.sharded.Shards(), d.sharded.Executors().Shard(0).Procs(), total, rate, arrival, slo)
	case d.single != nil:
		fmt.Fprintf(w, "== open-loop serving demo — 4 tenants (hot-weighted), W=%d, %d arrivals at %.0f req/s (%s), slo=%v\n",
			d.workers, total, rate, arrival, slo)
	default:
		fmt.Fprintf(w, "== open-loop serving demo — 4 tenants (hot-weighted), remote server, %d arrivals at %.0f req/s (%s), slo=%v\n",
			total, rate, arrival, slo)
	}
	d.printServeStats(w)
	fmt.Fprintf(w, "clients: sent=%d ok=%d rejected=%d deadline-refused=%d errors=%d | offered=%.0f req/s achieved=%.0f req/s over %s\n",
		rep.Sent, rep.OK, rejected, deadlined, other,
		rep.OfferedRate, rep.AchievedRate, res.Wall.Round(time.Millisecond))
	fmt.Fprintf(w, "latency (uncorrected, send->done):    p50=%s p95=%s p99=%s\n",
		perf.FormatDuration(rep.UncorrectedP50),
		perf.FormatDuration(rep.UncorrectedP95),
		perf.FormatDuration(rep.UncorrectedP99))
	fmt.Fprintf(w, "latency (corrected, intended->done):  p50=%s p95=%s p99=%s  <- the honest tail\n",
		perf.FormatDuration(rep.CorrectedP50),
		perf.FormatDuration(rep.CorrectedP95),
		perf.FormatDuration(rep.CorrectedP99))
	printTenantStats(w, d.admin)
	if rep.OK == 0 {
		// Same dead-backend guard as the closed-loop demo: percentile
		// rows over zero samples prove nothing, and a CI smoke against
		// an unreachable server must fail, not print empty stats.
		return fmt.Errorf("no arrival succeeded (%d sent, %d rejected, %d errors) — backend unreachable or every call failed", rep.Sent, rejected, other)
	}
	return nil
}

// executorFor resolves the -executor flag mode; unknown values are an
// error, never a silent default.
func executorFor(mode string) (*exec.Executor, error) {
	switch mode {
	case "pooled", "":
		return nil, nil // nil = the shared process-wide pool
	case "dedicated":
		return exec.New(0), nil
	case "spawn":
		return exec.NewSpawning(), nil
	}
	return nil, fmt.Errorf("bad -executor %q: want pooled, dedicated, or spawn", mode)
}

// scratchFor resolves the -scratch flag mode.
func scratchFor(mode string) (*scratch.Pool, error) {
	switch mode {
	case "on", "":
		return nil, nil // nil = the shared process-wide scratch pool
	case "off":
		return scratch.Off, nil
	}
	return nil, fmt.Errorf("bad -scratch %q: want on or off", mode)
}

// cacheFor resolves the -cache flag mode; unknown values are an
// error, never a silent default.
func cacheFor(mode string) (bool, error) {
	switch mode {
	case "on":
		return true, nil
	case "off", "":
		return false, nil
	}
	return false, fmt.Errorf("bad -cache %q: want on or off", mode)
}

// deltaFor resolves the -delta flag mode.
func deltaFor(mode string) (bool, error) {
	switch mode {
	case "on":
		return true, nil
	case "off", "":
		return false, nil
	}
	return false, fmt.Errorf("bad -delta %q: want on or off", mode)
}

// arrivalFor resolves the -arrival flag mode into "poisson?".
func arrivalFor(mode string) (bool, error) {
	switch mode {
	case "poisson", "":
		return true, nil
	case "const":
		return false, nil
	}
	return false, fmt.Errorf("bad -arrival %q: want const or poisson", mode)
}

// adaptFor resolves the -adapt flag mode.
func adaptFor(mode string) (bool, error) {
	switch mode {
	case "on":
		return true, nil
	case "off", "":
		return false, nil
	}
	return false, fmt.Errorf("bad -adapt %q: want on or off", mode)
}

// printRuntimeStats reports the executor's steal counters alongside
// the scratch pool's reuse gauges — and, with -adapt=on, the tuning
// controller's counters — so one run shows every half of the runtime's
// behavior: how work moved between workers, how buffer memory was
// recycled, and how the parameter cache filled and converged.
func printRuntimeStats(cfg core.Config) {
	e := cfg.Executor
	if e == nil {
		e = exec.Default()
	}
	sp := cfg.Scratch
	if sp == nil {
		sp = scratch.Default()
	}
	st := sp.Stats()
	fmt.Printf("runtime: steals=%d attempts=%d | scratch: hits=%d misses=%d bypasses=%d live=%s pooled=%s\n",
		e.Steals(), e.StealAttempts(),
		st.Hits, st.Misses, st.Bypasses, fmtBytes(st.BytesLive), fmtBytes(st.BytesPooled))
	if cfg.Adaptive {
		at := adapt.Default().Stats()
		fmt.Printf("adapt: sites=%d classes=%d decisions=%d explorations=%d degraded=%d converged=%d\n",
			at.Sites, at.Classes, at.Decisions, at.Explorations, at.Degraded, at.Converged)
	}
}

func fmtBytes(b int64) string {
	switch {
	case b >= 1<<20:
		return fmt.Sprintf("%.1fMiB", float64(b)/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.1fKiB", float64(b)/(1<<10))
	default:
		return fmt.Sprintf("%dB", b)
	}
}

func selectIDs(flagVal string) []string {
	if flagVal == "all" {
		ids := make([]string, len(core.Experiments))
		for i, e := range core.Experiments {
			ids[i] = e.ID
		}
		return ids
	}
	var ids []string
	for _, s := range strings.Split(flagVal, ",") {
		if s = strings.TrimSpace(s); s != "" {
			ids = append(ids, s)
		}
	}
	return ids
}

func parseInts(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, err
		}
		if v < 1 {
			return nil, fmt.Errorf("count %d < 1", v)
		}
		out = append(out, v)
	}
	return out, nil
}

func writeCSV(dir, id string, t *perf.Table) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, id+".csv"))
	if err != nil {
		return err
	}
	defer f.Close()
	return t.RenderCSV(f)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "parbench: "+format+"\n", args...)
	os.Exit(1)
}
