// Command parbench regenerates the evaluation's tables and figures
// (parbench -list prints the experiment index; DESIGN.md describes
// each) and hosts the runtime traffic demos.
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
//	parbench -serve              # multi-tenant request-serving demo
//	parbench -serve -openloop -rate 2000 -slo 10ms
//	                             # open-loop schedule-driven traffic
//	parbench -serve -wire loopback
//	                             # same demo over a real socket
//
// Flags -procs, -vprocs, -reps and -seed control the sweep; -executor
// selects the dispatch runtime (the shared persistent pool or a
// dedicated one), -scratch toggles the scratch-arena buffer reuse,
// and -adapt=on replaces every hard-coded
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
// values are rejected with a usage error, never silently defaulted,
// and the open-loop knobs require the modes they refine (-openloop
// needs -serve; -rate and -arrival need -openloop; -slo needs
// -serve). -wire reruns a -serve demo over the binary wire protocol
// (internal/wire) instead of in-process calls: 'loopback' spins an
// in-process listener on a real TCP socket (the CI smoke path),
// 'host:port' or 'unix:PATH' target a running parserve — where -cache
// is refused, because cache invalidation (BumpGeneration) is
// server-side state the protocol does not carry.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
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
	"repro/internal/perf"
	"repro/internal/rescache"
	"repro/internal/rng"
	"repro/internal/scratch"
	"repro/internal/serve"
	"repro/internal/wire"
)

func main() {
	var (
		expFlag   = flag.String("exp", "all", "comma-separated experiment ids (see -list) or 'all'")
		quick     = flag.Bool("quick", false, "use smoke-test problem sizes")
		procsFlag = flag.String("procs", "", "comma-separated worker counts (default 1,2,4,8)")
		vprocs    = flag.String("vprocs", "", "comma-separated virtual BSP processor counts")
		reps      = flag.Int("reps", 0, "measured repetitions per point (default 3)")
		seed      = flag.Uint64("seed", 0, "workload seed (default 42)")
		csvDir    = flag.String("csv", "", "directory to also write one CSV per experiment")
		list      = flag.Bool("list", false, "list the experiment index and exit")
		executor  = flag.String("executor", "pooled",
			"dispatch runtime: 'pooled' (shared persistent pool) or 'dedicated' (fresh pool)")
		scratchMode = flag.String("scratch", "on",
			"scratch-arena buffer reuse: 'on' (pooled temporaries) or 'off' (fresh allocation per call)")
		adaptMode = flag.String("adapt", "off",
			"online load-aware tuning: 'on' (grain/policy/cutoffs picked per call site by the adapt runtime) or 'off'")
		serveMode = flag.Bool("serve", false,
			"run the multi-tenant request-serving traffic demo (batched admission control over mixed sort/histogram/scan/sum requests) and print its throughput/latency-percentile stats instead of experiments")
		shardsFlag = flag.Int("shards", 1,
			"with -serve: run the server on N executor shards with tenant-affinity routing and diffusive migration, and print per-shard stats (at most the last -procs value; every shard builds its own executor, so -executor does not apply)")
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

	if *shardsFlag != 1 && !*serveMode {
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
	cacheOn, cacheErr := onOff("cache", *cacheFlag, false)
	if cacheErr != nil {
		fatalf("%v", cacheErr)
	}
	deltaOn, deltaErr := onOff("delta", *deltaFlag, false)
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
	if scratchOn, err := onOff("scratch", *scratchMode, true); err != nil {
		fatalf("%v", err)
	} else if !scratchOn {
		cfg.Scratch = scratch.Off // nil = the shared process-wide scratch pool
	}
	if cfg.Adaptive, err = onOff("adapt", *adaptMode, false); err != nil {
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

	if *serveMode {
		demo := serveDemo{
			shards: *shardsFlag, slo: *sloFlag, cacheOn: cacheOn, deltaOn: deltaOn, wireAddr: *wireFlag,
			openLoop: *openLoop, rate: *rateFlag, poisson: poissonArrivals,
		}
		if demo.openLoop && demo.rate == 0 {
			demo.rate = 2000
		}
		if err := runServeDemo(cfg, demo, os.Stdout); err != nil {
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

// demoFront bundles the server a -serve demo built with the bits both
// the closed-loop and open-loop drivers need: front is where the
// traffic goes (the server itself, or a wire client pool in front of
// it), srv the local server behind it — nil against a remote parserve,
// whose server-side state the wire protocol does not carry.
type demoFront struct {
	front serve.Front
	srv   *serve.Sharded
	scfg  serve.Config
	// Wire mode: wl is the loopback listener (nil against a remote
	// parserve, and in plain in-process mode), wf the client pool the
	// demo traffic runs through.
	wl *wire.Listener
	wf *wireFront
}

// shardProcs is each demo shard's worker count: the demo's workers (the
// last -procs value, default 4) split evenly over shards. Fewer workers
// than shards is refused rather than floored to one worker per shard,
// which would run more workers than asked for.
func shardProcs(shards int, procs []int) (int, error) {
	workers := 4
	if len(procs) > 0 {
		workers = procs[len(procs)-1]
	}
	if shards < 1 {
		return 0, fmt.Errorf("bad -shards %d: want >= 1", shards)
	}
	if workers < shards {
		return 0, fmt.Errorf("bad -shards %d: want at most the %d serving workers (the last -procs value); every shard needs one", shards, workers)
	}
	return workers / shards, nil
}

// buildServeFront constructs the demo server: shards executor shards
// (tenants hash to home shards and, with more than one, the diffusive
// balancer migrates backlog; each shard owns its executor, so
// cfg.Executor is unused, and with a nil cfg.Scratch its scratch
// pool). slo threads the deadline budget into the admission ladder;
// maxQueue overrides the per-tenant queue bound (0 = serve's default). A non-empty wireAddr reroutes the demo
// traffic over the binary wire protocol: "loopback" spins an
// in-process listener on a real TCP socket in front of the server just
// built, any other value targets a running parserve (and no local
// server is built at all — the admission counters live on the far
// side).
func buildServeFront(cfg core.Config, shards int, slo time.Duration, maxQueue int, cacheOn bool, wireAddr string) (*demoFront, error) {
	if wireAddr != "" && wireAddr != "loopback" {
		network, addr := wireTarget(wireAddr)
		wf := &wireFront{network: network, addr: addr}
		return &demoFront{front: wf, wf: wf}, nil
	}
	procs, err := shardProcs(shards, cfg.Procs)
	if err != nil {
		return nil, err
	}
	scfg := cfg.ServeConfig(procs)
	scfg.MaxQueue = maxQueue
	scfg.PipelineCutoff = 1 << 15 // the demos' "long request" threshold
	scfg.SLO = slo
	if cacheOn {
		// One cache in front of everything; every shard shares it (the
		// Config template copies the pointer).
		scfg.Cache = rescache.New(rescache.Config{Pool: cfg.Scratch})
	}
	srv := serve.NewSharded(serve.ShardedConfig{
		Shards:            shards,
		ShardProcs:        procs,
		MigrateHysteresis: 2, // small: the demo queues are shallow
		Config:            scfg,
	})
	d := &demoFront{front: srv, srv: srv, scfg: scfg}
	if wireAddr == "loopback" {
		wl, err := wire.Listen("tcp", "127.0.0.1:0", d.front, wire.Config{})
		if err != nil {
			srv.Close()
			return nil, fmt.Errorf("wire: listen: %w", err)
		}
		d.wl = wl
		d.wf = &wireFront{network: "tcp", addr: wl.Addr().String()}
		d.front = d.wf
	}
	return d, nil
}

func (d *demoFront) close() {
	if d.wf != nil {
		d.wf.closeClients()
	}
	if d.wl != nil {
		d.wl.Close()
	}
	if d.srv != nil {
		d.srv.Close()
	}
}

// printServeStats prints the admission/batching/deadline counters
// line, then the migration and per-shard lines.
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
	sst := d.srv.Stats()
	st := sst.Aggregate
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
	fmt.Fprintf(w, "shards: migrations=%d migrated=%d\n", sst.Migrations, sst.Migrated)
	for i, ss := range sst.PerShard {
		fmt.Fprintf(w, "shard %d: accepted=%-6d completed=%-6d batches=%-5d migrated in=%-4d out=%-4d occupancy=%.2f\n",
			i, ss.Accepted, ss.Completed, ss.Batches, ss.MigratedIn, ss.MigratedOut,
			d.srv.Executors().ShardOccupancy(i))
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

// demoN is the demos' request payload length.
const demoN = 2048

// demoPayload derives the demo's shared 2K-element request payload.
func demoPayload(seed uint64) []int64 {
	base := make([]int64, demoN)
	for i := range base {
		base[i] = int64((uint64(i)*2654435761 + seed) % 100003)
	}
	return base
}

// demoBufs is one in-flight demo request's payload: the input it
// refreshes from the shared payload before each call, and the outputs.
type demoBufs struct {
	xs, dst []int64
	hist    []int
}

func newDemoBufs() *demoBufs {
	return &demoBufs{xs: make([]int64, demoN), dst: make([]int64, demoN), hist: make([]int, 1024)}
}

func demoBucket(v int64) int { return int(uint64(v) % 1024) }

// demoRequest issues request i of the mix both drivers share: mixed
// 2K-element sort/histogram/scan/sum over the payload in b.xs.
func demoRequest(f serve.Front, tenant string, i int, b *demoBufs) error {
	switch i % 4 {
	case 0:
		return serve.Sort(f, tenant, b.xs)
	case 1:
		return serve.Histogram(f, tenant, b.hist, b.xs, demoBucket)
	case 2:
		return serve.Scan(f, tenant, b.dst, b.xs)
	}
	_, err := serve.Sum(f, tenant, b.xs)
	return err
}

// serveDemo is the -serve demo's flag set: which server to build
// (shards, slo, cacheOn, wireAddr), which driver to run against it
// (openLoop, with its rate and arrival process) and, closed-loop only,
// whether to mix in standing-query delta traffic.
type serveDemo struct {
	shards   int
	slo      time.Duration
	cacheOn  bool
	deltaOn  bool
	wireAddr string
	openLoop bool
	rate     float64
	poisson  bool
}

// demoRun is what a traffic driver hands the shared demo body: the
// two halves of the header line that sit around the server
// description, the loadgen report, and the driver's own summary rows.
type demoRun struct {
	title, load string
	rep         loadgen.Report
	rows        func(w io.Writer)
}

// runServeDemo drives multi-tenant request traffic through the
// request-serving runtime — p.shards executor shards, either behind a
// wire listener or a remote parserve with p.wireAddr — and prints the
// server's admission/batching counters, the driver's client-side
// summary rows and the per-tenant fair-share split. The driver is
// closedLoopDemo (loadgen.Closed), or openLoopDemo (loadgen.Run) with
// p.openLoop; everything else is shared. It honors the -scratch,
// -adapt, -procs, -seed and -quick flags through cfg. A p.shards the
// workers cannot cover is an error before any traffic runs.
func runServeDemo(cfg core.Config, p serveDemo, w io.Writer) error {
	// Closed loop: a small queue bound lets the hot tenant's
	// backpressure show. Open loop: serve's default, so queueing (the
	// thing the corrected clock exists to see) is not clipped.
	drive, maxQueue := closedLoopDemo, 4
	if p.openLoop {
		drive, maxQueue = openLoopDemo, 0
	}
	d, err := buildServeFront(cfg, p.shards, p.slo, maxQueue, p.cacheOn, p.wireAddr)
	if err != nil {
		return err
	}
	defer d.close()

	total := 20000
	if cfg.Quick {
		total = 2000
	}
	run := drive(d, p, total, cfg.WorkloadSeed())

	where := "remote server"
	if d.srv != nil {
		where = fmt.Sprintf("%d shards × W=%d", d.srv.Shards(), d.srv.Executors().Shard(0).Procs())
	}
	fmt.Fprintf(w, "== %s, %s, %s\n", run.title, where, run.load)
	d.printServeStats(w)
	run.rows(w)
	printTenantStats(w, d.srv)
	if run.rep.OK == 0 {
		// Errored requests are counted, not fatal, so the denominator
		// stays honest — but a run where *nothing* succeeded is a dead
		// server, not a demo: percentile rows over zero samples prove
		// nothing, and a CI smoke against an unreachable backend must
		// fail, not print empty stats and exit 0.
		return fmt.Errorf("no request succeeded (%d sent, %d errored) — backend unreachable or every call failed", run.rep.Sent, run.rep.Errors)
	}
	return nil
}

// closedLoopDemo is the closed-loop driver: one hot tenant with 8
// clients and three light tenants with 2 each, issuing the demoRequest
// mix plus an occasional long sort that takes the long route (one
// kernel call on the caller's goroutine). Rejected requests are
// retried under capped exponential backoff with rng jitter (a fixed
// sleep would wake every backpressured client in lockstep and re-flood
// the door) with the latency sample still accruing, so the tail
// reflects the retries; unexpected errors are recorded rather than
// silently shrinking the sample, so the percentiles' denominator is
// every issued request.
// With p.cacheOn most of the repeated-payload requests become hits,
// and with p.deltaOn each client additionally maintains a standing
// sorted record through CallDeltaBudget appends — the incremental
// path — instead of re-sorting from scratch. Closed-loop percentiles
// understate the tail under saturation (coordinated omission): the
// open-loop driver exists to print the honest number.
func closedLoopDemo(d *demoFront, p serveDemo, total int, seed uint64) demoRun {
	const backoffMin, backoffMax = 20 * time.Microsecond, 2 * time.Millisecond
	base := demoPayload(seed)
	kSort := kernel.MustLookup("sort")
	var retried, deadlined, deltas atomic.Int64
	var bumped atomic.Bool
	tenantRetries := make([]atomic.Int64, len(demoTenantNames))
	// Per-client state, indexed by loadgen.Closed's client number.
	type client struct {
		*demoBufs
		rg      *rng.Rand
		tIdx    int
		backoff time.Duration
		big     []int64 // lazily sized for the occasional long sort
		// Standing-query state for -delta traffic: a sorted record this
		// client grows through delta appends, re-seeded (full sort)
		// whenever it outgrows its budget.
		standing kernel.Args
		chunk    []int64
	}
	clients := make([]client, len(demoTenants))
	for c := range clients {
		clients[c] = client{demoBufs: newDemoBufs(), rg: rng.New(seed + uint64(c)),
			tIdx: demoTenantIdx(demoTenants[c]), backoff: backoffMin, chunk: make([]int64, 16)}
	}
	res := loadgen.Closed(len(clients), total, func(c, i int) error {
		cl, tenant := &clients[c], demoTenants[c]
		copy(cl.xs, base)
		for {
			var err error
			switch {
			case p.deltaOn && i%8 == 5:
				if len(cl.standing.Xs) == 0 || len(cl.standing.Xs) > 4*demoN {
					cl.standing.Xs = append(cl.standing.Xs[:0], base...)
					if err = serve.Sort(d.front, tenant, cl.standing.Xs); err != nil {
						cl.standing.Xs = cl.standing.Xs[:0] // not sorted; re-seed on retry
						break
					}
				}
				for j := range cl.chunk {
					cl.chunk[j] = int64(cl.rg.Uint64n(100003))
				}
				err = d.front.CallDeltaBudget(tenant, kSort, &cl.standing, &kernel.Delta{Append: cl.chunk}, 0)
				if err == nil {
					deltas.Add(1)
				}
			case i%512 == 511:
				if cl.big == nil {
					cl.big = make([]int64, d.scfg.PipelineCutoff)
				}
				for j := range cl.big {
					cl.big[j] = base[j%demoN]
				}
				err = serve.Sort(d.front, tenant, cl.big)
			default:
				err = demoRequest(d.front, tenant, i, cl.demoBufs)
				if err == nil && p.cacheOn && tenant == "t2" && i >= total/2 && i%4 != 1 && !bumped.Swap(true) {
					// Midway, one tenant's data "changes": its cached
					// entries die at once and the invalidations counter
					// in the stats line goes live. The bump follows a t2
					// sort, scan or sum (demoRequest's histogram cannot be
					// cached) that just hit or inserted an entry, so at
					// least one entry dies.
					d.srv.BumpGeneration("t2")
				}
			}
			if !errors.Is(err, serve.ErrRejected) && !errors.Is(err, serve.ErrDeadlineExceeded) {
				if err == nil {
					cl.backoff = backoffMin
				}
				return err
			}
			// Backpressure: back off and retry the same request. Capped
			// exponential with equal jitter: half the window is
			// deterministic, half uniform, so backpressured clients fan
			// out instead of waking in lockstep.
			retried.Add(1)
			tenantRetries[cl.tIdx].Add(1)
			if errors.Is(err, serve.ErrDeadlineExceeded) {
				deadlined.Add(1)
			}
			time.Sleep(cl.backoff/2 + time.Duration(cl.rg.Uint64n(uint64(cl.backoff)/2+1)))
			cl.backoff = min(2*cl.backoff, backoffMax)
		}
	})
	rep := res.Summarize(loadgen.Schedule{})
	return demoRun{
		title: "request-serving traffic demo — 4 tenants (hot ×8 clients, t1..t3 ×2)",
		load:  fmt.Sprintf("%d requests", total),
		rep:   rep,
		rows: func(w io.Writer) {
			fmt.Fprintf(w, "clients: issued=%d ok=%d errored=%d retried=%d (hot=%d t1=%d t2=%d t3=%d) deadline-refused=%d",
				rep.Sent, rep.OK, rep.Errors, retried.Load(),
				tenantRetries[0].Load(), tenantRetries[1].Load(),
				tenantRetries[2].Load(), tenantRetries[3].Load(), deadlined.Load())
			if p.deltaOn {
				fmt.Fprintf(w, " delta-updates=%d", deltas.Load())
			}
			fmt.Fprintln(w)
			fmt.Fprintf(w, "latency: p50=%s p95=%s p99=%s | throughput=%.0f req/s over %s\n",
				perf.FormatDuration(rep.UncorrectedP50),
				perf.FormatDuration(rep.UncorrectedP95),
				perf.FormatDuration(rep.UncorrectedP99),
				rep.AchievedRate, res.Wall.Round(time.Millisecond))
		},
	}
}

// printTenantStats prints the per-tenant fair-share split including
// the deadline counters; against a remote server (nil srv) that state
// lives on the far side and nothing is printed.
func printTenantStats(w io.Writer, srv *serve.Sharded) {
	if srv == nil {
		return
	}
	for _, ts := range srv.TenantStats() {
		fmt.Fprintf(w, "tenant %-4s accepted=%-6d completed=%-6d rejected=%-5d dlrej=%-5d expired=%-3d cachehits=%d\n",
			ts.Name, ts.Accepted, ts.Completed, ts.Rejected, ts.DeadlineRejected, ts.Expired, ts.CacheHits)
	}
}

// openLoopDemo is the open-loop driver: the same tenant mix fired from
// a fixed arrival schedule (internal/loadgen), whether or not earlier
// requests have finished, so a stalled batch cannot slow the offered
// load down and every sample carries two latencies — uncorrected
// (send→done, what a closed-loop client would have measured) and
// corrected (intended-arrival→done, charging queue delay to the
// system). Both percentile rows are printed side by side; the
// corrected row is the honest one and the gap between them is the
// coordinated-omission error made visible. Open-loop clients never
// retry: a rejected or deadline-refused arrival is an error by design,
// counted in the clients line.
func openLoopDemo(d *demoFront, p serveDemo, total int, seed uint64) demoRun {
	base := demoPayload(seed)
	var sched loadgen.Schedule
	arrival := "const"
	if p.poisson {
		arrival, sched = "poisson", loadgen.Poisson(total, p.rate, seed)
	} else {
		sched = loadgen.Constant(total, p.rate)
	}
	// Open-loop arrivals overlap, so in-flight requests each need
	// their own payload buffers (harness overhead, pooled).
	pool := sync.Pool{New: func() any { return newDemoBufs() }}
	res := loadgen.Run(sched, func(i int) error {
		bf := pool.Get().(*demoBufs)
		defer pool.Put(bf)
		copy(bf.xs, base)
		return demoRequest(d.front, demoTenants[i%len(demoTenants)], i, bf)
	})
	rep := res.Summarize(sched)
	return demoRun{
		title: "open-loop serving demo — 4 tenants (hot-weighted)",
		load:  fmt.Sprintf("%d arrivals at %.0f req/s (%s), slo=%v", total, p.rate, arrival, p.slo),
		rep:   rep,
		rows: func(w io.Writer) {
			rejected := res.Failed(func(err error) bool { return errors.Is(err, serve.ErrRejected) })
			deadlined := res.Failed(func(err error) bool { return errors.Is(err, serve.ErrDeadlineExceeded) })
			fmt.Fprintf(w, "clients: sent=%d ok=%d rejected=%d deadline-refused=%d errors=%d | offered=%.0f req/s achieved=%.0f req/s over %s\n",
				rep.Sent, rep.OK, rejected, deadlined, rep.Errors-rejected-deadlined,
				rep.OfferedRate, rep.AchievedRate, res.Wall.Round(time.Millisecond))
			fmt.Fprintf(w, "latency (uncorrected, send->done):    p50=%s p95=%s p99=%s\n",
				perf.FormatDuration(rep.UncorrectedP50),
				perf.FormatDuration(rep.UncorrectedP95),
				perf.FormatDuration(rep.UncorrectedP99))
			fmt.Fprintf(w, "latency (corrected, intended->done):  p50=%s p95=%s p99=%s  <- the honest tail\n",
				perf.FormatDuration(rep.CorrectedP50),
				perf.FormatDuration(rep.CorrectedP95),
				perf.FormatDuration(rep.CorrectedP99))
		},
	}
}

// executorFor resolves the -executor flag mode; unknown values are an
// error, never a silent default.
func executorFor(mode string) (*exec.Executor, error) {
	switch mode {
	case "pooled", "":
		return nil, nil // nil = the shared process-wide pool
	case "dedicated":
		return exec.New(0), nil
	}
	return nil, fmt.Errorf("bad -executor %q: want pooled or dedicated", mode)
}

// onOff resolves one of the on/off mode flags (-scratch, -adapt,
// -cache, -delta); an empty mode means def. Unknown values are an
// error, never a silent default.
func onOff(flagName, mode string, def bool) (bool, error) {
	switch mode {
	case "on":
		return true, nil
	case "off":
		return false, nil
	case "":
		return def, nil
	}
	return false, fmt.Errorf("bad -%s %q: want on or off", flagName, mode)
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
