// Package repro is a Go reproduction of "Engineering Parallel Algorithms"
// (HPDC 1996): a parallel algorithm engineering toolkit — scheduling
// primitives, abstract machine models, a simulated BSP machine, workload
// generators and an experiment harness — together with the classic
// case-study kernels (scan, sorting, list ranking, graph connectivity,
// MST, matmul, stencil) engineered against sequential baselines.
//
// This top-level package is a thin facade over the internal packages so
// downstream users get one import path for the common operations; the
// full surface lives in internal/* and is documented there. See README.md
// for a tour and DESIGN.md for the system inventory.
package repro

import (
	"io"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/kernel"
	"repro/internal/machine"
	"repro/internal/par"
	"repro/internal/perf"
	"repro/internal/pgraph"
	"repro/internal/plist"
	"repro/internal/pmat"
	"repro/internal/psel"
	"repro/internal/psort"
	"repro/internal/pstencil"
	"repro/internal/rescache"
	"repro/internal/scratch"
	"repro/internal/seq"
	"repro/internal/serve"
	"repro/internal/wire"
)

// Re-exported types. Aliases keep the facade zero-cost: values flow to
// and from the internal packages without conversion.
type (
	// Options configures parallel primitives (workers, schedule, grain).
	Options = par.Options
	// Policy selects a loop schedule (Static, Cyclic, Dynamic, Guided).
	Policy = par.Policy
	// Graph is a CSR undirected graph.
	Graph = graph.Graph
	// Edge is an undirected weighted edge.
	Edge = graph.Edge
	// List is an array-embedded linked list for list ranking.
	List = gen.List
	// Matrix is a dense row-major matrix.
	Matrix = gen.Matrix
	// Grid is a square scalar field for stencil kernels.
	Grid = gen.Grid
	// WorkDepth is a PRAM work/span cost.
	WorkDepth = machine.WorkDepth
	// BSPParams are Bulk-Synchronous Parallel machine parameters.
	BSPParams = machine.BSPParams
	// Table is an experiment result table.
	Table = perf.Table
	// ExperimentConfig scales the experiment suite.
	ExperimentConfig = core.Config
	// Executor is a persistent worker pool; every parallel primitive
	// and kernel dispatches onto one (the shared process-wide pool by
	// default). Pin a dedicated pool via Options.Executor to isolate a
	// workload's parallelism in a long-lived server.
	Executor = exec.Executor
	// ScratchPool is a size-class pool of reusable kernel temporaries;
	// every kernel draws scratch from one (the shared process-wide pool
	// by default). Pin a dedicated pool via Options.Scratch, or set
	// Options.Scratch = ScratchOff to disable reuse.
	ScratchPool = scratch.Pool
	// ScratchStats is a snapshot of a scratch pool's reuse counters
	// (hits, misses, bypasses) and its bytes on loan and parked.
	ScratchStats = scratch.Stats
	// ServerConfig shapes one shard of a ShardedServer — the template
	// ShardedServerConfig embeds (batch worker count, per-tenant queue
	// bound, pipeline cutoff, the per-request SLO deadline budget, an
	// optional ResultCache fronting admission, and the scratch pool
	// the shard serves on; every shard brings its own executor).
	ServerConfig = serve.Config
	// ShardedServer is the multi-tenant request-serving runtime: it
	// coalesces concurrent small requests into fused batched kernel
	// invocations (one pooled fork/join per batch instead of one per
	// request), applies occupancy-driven admission control (queue,
	// shed to serial, reject with backpressure), and forms batches
	// round-robin across tenants so a hot tenant cannot starve the
	// rest. It runs on N shards — each with its own executor pool,
	// scratch arena and batch dispatcher — with tenants hashed to a
	// home shard and, with more than one shard, a diffusive balancer
	// that migrates queued requests from an overloaded shard to its
	// ring neighbors when their backlogs diverge. Build one with
	// NewShardedServer.
	ShardedServer = serve.Sharded
	// ShardedServerConfig shapes a ShardedServer (shard count,
	// per-shard workers, migration thresholds, plus the embedded
	// per-shard ServerConfig).
	ShardedServerConfig = serve.ShardedConfig
	// ShardedServerStats is a snapshot of a sharded server's
	// aggregate, per-shard and migration counters.
	ShardedServerStats = serve.ShardedStats
	// ResultCache is the generation-stamped result cache: keyed on
	// (tenant, kernel, input fingerprint, tenant generation), it lets
	// a ShardedServer recognize repeated requests at the door and restore
	// their stored outputs with zero kernel work. Build one with
	// NewResultCache and hand it to ServerConfig.Cache (shards of a
	// ShardedServer share the one instance, so migrated requests can
	// never resurrect an invalidated entry). ShardedServer.BumpGeneration
	// invalidates a tenant's entries when its data changes.
	ResultCache = rescache.Cache
	// ResultCacheConfig shapes a ResultCache (scratch pool for entry
	// buffers, total byte bound for the LRU).
	ResultCacheConfig = rescache.Config
	// ResultCacheStats is a snapshot of a result cache's occupancy
	// and hit/miss/eviction/invalidation counters.
	ResultCacheStats = rescache.Stats
	// WireListener is the network front door: it serves the binary
	// wire protocol over TCP or Unix sockets onto a ShardedServer,
	// decoding request payloads in place into
	// connection-owned scratch slabs (zero-copy read path), streaming
	// large responses as chunk frames, and stamping each frame's
	// optional deadline budget into the admission ladder. Build one
	// with NewListener.
	WireListener = wire.Listener
	// WireListenerConfig shapes a WireListener (frame size bound,
	// streaming cutoff and chunk size, scratch pool).
	WireListenerConfig = wire.Config
	// WireListenerStats is a snapshot of a listener's connection,
	// request and response counters.
	WireListenerStats = wire.Stats
	// WireClient is the matching client: one connection, synchronous
	// framed round trips. It is a Front like the in-process servers,
	// so the ServeSort...ServeBFS helpers work on it unchanged. Build
	// one with DialClient.
	WireClient = wire.Client
	// Front is the one request interface of the serving stack —
	// CallBudget and CallDeltaBudget — implemented by *ShardedServer
	// and *WireClient. A WireListener serves onto one;
	// the ServeSort...ServeBFS helpers submit through one.
	Front = serve.Front
	// Kernel is one entry of the typed kernel registry — the unit a
	// WireClient names in a call. Look builtins up with LookupKernel.
	Kernel = kernel.Kernel
	// KernelArgs is a kernel's argument record: inputs, outputs and
	// scalars in one struct, the payload a wire frame carries.
	KernelArgs = kernel.Args
)

// Admission-control errors returned by ShardedServer request methods.
var (
	// ErrServerClosed reports a request submitted after
	// ShardedServer.Close.
	ErrServerClosed = serve.ErrClosed
	// ErrRequestRejected reports admission backpressure: the tenant's
	// bounded queue is full (the bound tightens while the executor is
	// saturated) and the request was not enqueued.
	ErrRequestRejected = serve.ErrRejected
	// ErrRequestDeadlineExceeded reports a deadline refusal under
	// ServerConfig.SLO: either the door predicted the queue wait would
	// blow the request's budget (refused before enqueue), or the
	// budget lapsed while the request waited and the dispatcher
	// expired it at batch formation instead of serving it late.
	ErrRequestDeadlineExceeded = serve.ErrDeadlineExceeded
)

// Scheduling policies.
const (
	Static  = par.Static
	Cyclic  = par.Cyclic
	Dynamic = par.Dynamic
	Guided  = par.Guided
)

// NewExecutor creates a dedicated persistent worker pool with procs
// workers (<= 0 means GOMAXPROCS). Workers start lazily and park when
// idle; Close releases them.
func NewExecutor(procs int) *Executor { return exec.New(procs) }

// DefaultExecutor returns the lazily started process-wide worker pool
// that all primitives use when Options.Executor is nil.
func DefaultExecutor() *Executor { return exec.Default() }

// ScratchOff disables scratch-buffer reuse when assigned to
// Options.Scratch: every kernel temporary is freshly allocated, the
// baseline the pooled steady state is measured against.
var ScratchOff = scratch.Off

// NewScratchPool creates a dedicated scratch-buffer pool; pin it via
// Options.Scratch to isolate a workload's buffer reuse (and its Stats)
// from the rest of the process.
func NewScratchPool() *ScratchPool { return scratch.New() }

// DefaultScratchStats returns the reuse counters of the process-wide
// scratch pool — the allocator-side companion to the executor's steal
// counters.
func DefaultScratchStats() ScratchStats { return scratch.Default().Stats() }

// NewResultCache creates a generation-stamped result cache to hand to
// ServerConfig.Cache. Repeated requests — same tenant, kernel and
// input bytes since the tenant's last BumpGeneration — are then served
// from the cache at the server's door, with the kernel run and the
// batch queue both skipped:
//
//	srv := repro.NewShardedServer(repro.ShardedServerConfig{Shards: 1,
//		Config: repro.ServerConfig{Cache: repro.NewResultCache(repro.ResultCacheConfig{})}})
//	defer srv.Close()
//	_ = repro.ServeSort(srv, "tenant-a", xs) // cold: runs, result stored
//	_ = repro.ServeSort(srv, "tenant-a", xs) // warm: restored, zero kernel work
//	srv.BumpGeneration("tenant-a") // tenant-a's data changed: entries die
//
// The zero ResultCacheConfig draws entry buffers from the process-wide
// scratch pool and bounds the LRU at 64 MiB. See internal/rescache for
// keying and invalidation semantics, and experiment E27 for the
// cold/warm/delta latency table.
func NewResultCache(cfg ResultCacheConfig) *ResultCache { return rescache.New(cfg) }

// NewShardedServer creates a request-serving runtime and starts one
// batch dispatcher per shard; Close it when done. Requests are
// submitted through the typed ServeSort...ServeBFS helpers (or
// CallBudget, for any registered kernel) from any number of
// goroutines:
//
//	srv := repro.NewShardedServer(repro.ShardedServerConfig{Shards: 1})
//	defer srv.Close()
//	if err := repro.ServeSort(srv, "tenant-a", xs); err != nil { ... }
//	med, err := repro.ServeSelect(srv, "tenant-b", ys, len(ys)/2)
//
// Each request routes to its tenant's home shard (stable hash), so
// balanced tenants never share queues, executors or scratch pools;
// under tenant skew the diffusive balancer migrates queued requests to
// adjacent shards (Stats().Migrated counts them). The zero
// ShardedServerConfig is one shard of GOMAXPROCS workers; with more
// shards the workers split evenly and migration is on at default
// hysteresis. See internal/serve for the
// admission, fairness, affinity and migration semantics, and
// experiment E24 for skewed traffic on one shard vs N with and without
// migration.
func NewShardedServer(cfg ShardedServerConfig) *ShardedServer { return serve.NewSharded(cfg) }

// NewListener starts a wire-protocol front door on network/addr
// ("tcp", "127.0.0.1:7070" or "unix", "/tmp/parserve.sock") serving
// backend — any Front, usually a *ShardedServer. Close it to drain
// in-flight requests and shut the socket:
//
//	srv := repro.NewShardedServer(repro.ShardedServerConfig{})
//	defer srv.Close()
//	l, err := repro.NewListener("tcp", "127.0.0.1:0", srv, repro.WireListenerConfig{})
//	if err != nil { ... }
//	defer l.Close()
//
// The zero WireListenerConfig bounds frames at 64 MiB, streams
// responses past 1 MiB as 64 KiB chunks, and draws connection buffers
// from the process-wide scratch pool. See internal/wire for the frame
// format and `cmd/parserve` for a standalone server binary.
func NewListener(network, addr string, backend Front, cfg WireListenerConfig) (*WireListener, error) {
	return wire.Listen(network, addr, backend, cfg)
}

// DialClient connects a wire-protocol client to a NewListener (or
// parserve) front door. A client is one connection with synchronous
// round trips — open one per concurrent request stream:
//
//	cl, err := repro.DialClient("tcp", l.Addr().String())
//	if err != nil { ... }
//	defer cl.Close()
//	err = repro.ServeSort(cl, "tenant-a", xs) // the helpers take any Front
//	a := repro.KernelArgs{Xs: ys}
//	err = cl.CallBudget("tenant-a", repro.LookupKernel("sort"), &a, 5*time.Millisecond)
//
// CallBudget's budget rides the frame as deadline metadata: the
// server's admission door refuses the request when the predicted
// queue wait would blow it, exactly as for an in-process caller.
func DialClient(network, addr string) (*WireClient, error) {
	return wire.Dial(network, addr)
}

// ServeSort sorts xs in place through f on behalf of tenant. (Sort,
// Sum, Select and BFS without the prefix are the direct parallel
// kernels; the Serve forms go through a Front's admission, batching
// and caching.)
func ServeSort(f Front, tenant string, xs []int64) error { return serve.Sort(f, tenant, xs) }

// ServeSelect returns the k-th smallest element of xs (0-based)
// through f, without modifying xs.
func ServeSelect(f Front, tenant string, xs []int64, k int) (int64, error) {
	return serve.Select(f, tenant, xs, k)
}

// ServeHistogram counts bucket(x) occurrences over xs into hist
// through f. Over a WireClient the bucket function itself cannot
// cross; the server applies the canonical uniform bucketing.
func ServeHistogram(f Front, tenant string, hist []int, xs []int64, bucket func(int64) int) error {
	return serve.Histogram(f, tenant, hist, xs, bucket)
}

// ServeScan writes inclusive prefix sums of xs into dst through f.
func ServeScan(f Front, tenant string, dst, xs []int64) error {
	return serve.Scan(f, tenant, dst, xs)
}

// ServeSum returns the sum of xs through f.
func ServeSum(f Front, tenant string, xs []int64) (int64, error) { return serve.Sum(f, tenant, xs) }

// ServeBFS returns hop distances from src in g (-1 when unreachable)
// through f.
func ServeBFS(f Front, tenant string, g *Graph, src int) ([]int32, error) {
	return serve.BFS(f, tenant, g, src)
}

// LookupKernel returns the registered kernel named name (nil when
// unknown). The builtins are "sort", "select", "histogram", "scan",
// "sum", "bfs", "gups", "topk" and "cc".
func LookupKernel(name string) *Kernel { return kernel.Lookup(name) }

// For executes body(i) for i in [0, n) in parallel.
func For(n int, opts Options, body func(i int)) { par.For(n, opts, body) }

// Sum computes a parallel sum of xs.
func Sum(xs []int64, opts Options) int64 { return par.Sum(xs, opts) }

// ScanInclusive computes parallel inclusive prefix sums of xs into dst.
func ScanInclusive(dst, xs []int64, opts Options) {
	par.ScanInclusive(dst, xs, opts, 0, func(a, b int64) int64 { return a + b })
}

// Sort sorts xs in place with parallel sample sort.
func Sort(xs []int64, opts Options) { psort.SampleSort(xs, opts) }

// MergeSort sorts xs in place with parallel merge sort.
func MergeSort(xs []int64, opts Options) { psort.MergeSort(xs, opts) }

// RadixSort sorts xs in place with parallel radix sort: splitter
// buckets, each sorted by the serial radix leaf.
func RadixSort(xs []int64, opts Options) { psort.RadixSort(xs, opts) }

// ListRank returns each node's distance from the list head via parallel
// pointer jumping.
func ListRank(l *List, opts Options) []int { return plist.Rank(l, opts) }

// ConnectedComponents labels the components of g (hook-and-shortcut).
func ConnectedComponents(g *Graph, opts Options) []int32 { return pgraph.CCHook(g, opts) }

// BFS returns hop distances from src (-1 when unreachable).
func BFS(g *Graph, src int, opts Options) []int32 { return pgraph.BFS(g, src, opts) }

// MSTWeight returns the weight of a minimum spanning forest (Borůvka).
func MSTWeight(g *Graph, opts Options) float64 { return pgraph.MSTBoruvka(g, opts) }

// MatMul multiplies dense matrices with the blocked parallel kernel.
func MatMul(a, b *Matrix, opts Options) *Matrix {
	return pmat.Mul(a, b, pmat.Config{Opts: opts})
}

// Jacobi runs iters parallel 5-point stencil sweeps and returns the
// resulting grid.
func Jacobi(g *Grid, iters int, opts Options) *Grid { return pstencil.Jacobi(g, iters, opts) }

// SequentialSort is the engineered sequential baseline (for comparisons).
func SequentialSort(xs []int64) { seq.Quicksort(xs) }

// Select returns the k-th smallest element of xs (0-based) without
// modifying xs, using the parallel count/pack quickselect.
func Select(xs []int64, k int, opts Options) int64 { return psel.Select(xs, k, opts) }

// PageRank computes damped PageRank on an undirected graph; see
// internal/pgraph for the full knobs.
func PageRank(g *Graph, opts Options) []float64 {
	return pgraph.PageRank(g, 0.85, 1e-9, 500, opts).Ranks
}

// TriangleCount returns the number of triangles in a simple graph.
func TriangleCount(g *Graph, opts Options) int64 { return pgraph.TriangleCount(g, opts) }

// Workload generators (see internal/gen for the full set).

// RandomInts generates n uniformly random keys from seed.
func RandomInts(n int, seed uint64) []int64 { return gen.Ints(n, gen.Uniform, seed) }

// RandomGraph generates an Erdős–Rényi graph with average degree avgDeg.
func RandomGraph(n int, avgDeg float64, weighted bool, seed uint64) *Graph {
	return gen.ErdosRenyi(n, avgDeg, weighted, seed)
}

// PowerLawGraph generates an R-MAT graph with 2^scale nodes.
func PowerLawGraph(scale, edgeFactor int, weighted bool, seed uint64) *Graph {
	return gen.RMAT(scale, edgeFactor, weighted, seed)
}

// RandomLinkedList generates a randomly laid-out linked list of n nodes.
func RandomLinkedList(n int, seed uint64) *List { return gen.RandomList(n, seed) }

// RunExperiment regenerates one table/figure of the evaluation (ids
// as listed by ExperimentIDs, or `parbench -list`) and writes it to w.
// It reports whether the id exists.
func RunExperiment(id string, cfg ExperimentConfig, w io.Writer) bool {
	e, ok := core.ByID(id)
	if !ok {
		return false
	}
	t := e.Run(cfg)
	_ = t.Render(w)
	return true
}

// ExperimentIDs lists the suite's experiment ids in evaluation order.
func ExperimentIDs() []string {
	ids := make([]string, len(core.Experiments))
	for i, e := range core.Experiments {
		ids[i] = e.ID
	}
	return ids
}
