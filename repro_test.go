package repro

import (
	"bytes"
	"fmt"
	"sort"
	"strings"
	"testing"
	"time"
)

func TestFacadeSum(t *testing.T) {
	xs := []int64{1, 2, 3, 4, 5}
	if got := Sum(xs, Options{Procs: 2, Grain: 1}); got != 15 {
		t.Fatalf("Sum = %d", got)
	}
}

func TestFacadeForAndScan(t *testing.T) {
	n := 1000
	xs := make([]int64, n)
	For(n, Options{Procs: 4, Grain: 16}, func(i int) { xs[i] = 1 })
	dst := make([]int64, n)
	ScanInclusive(dst, xs, Options{Procs: 4, Grain: 16})
	if dst[n-1] != int64(n) {
		t.Fatalf("scan total = %d", dst[n-1])
	}
}

func TestFacadeSorts(t *testing.T) {
	for name, fn := range map[string]func([]int64, Options){
		"sample": Sort, "merge": MergeSort, "radix": RadixSort,
	} {
		xs := RandomInts(10000, 3)
		want := append([]int64(nil), xs...)
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		fn(xs, Options{Procs: 4})
		for i := range want {
			if xs[i] != want[i] {
				t.Fatalf("%s: mismatch at %d", name, i)
			}
		}
	}
	xs := RandomInts(100, 1)
	SequentialSort(xs)
	if !sort.SliceIsSorted(xs, func(i, j int) bool { return xs[i] < xs[j] }) {
		t.Fatal("SequentialSort")
	}
}

func TestFacadeGraphs(t *testing.T) {
	g := RandomGraph(1000, 8, false, 1)
	labels := ConnectedComponents(g, Options{Procs: 4})
	if len(labels) != 1000 {
		t.Fatal("labels length")
	}
	depth := BFS(g, 0, Options{Procs: 4})
	if depth[0] != 0 {
		t.Fatal("BFS source depth")
	}
	pg := PowerLawGraph(10, 8, false, 2)
	if pg.N() != 1024 {
		t.Fatalf("PowerLawGraph n = %d", pg.N())
	}
	wg := RandomGraph(500, 8, true, 3)
	if w := MSTWeight(wg, Options{Procs: 4}); w <= 0 {
		t.Fatalf("MST weight = %v", w)
	}
}

func TestFacadeListRank(t *testing.T) {
	l := RandomLinkedList(500, 9)
	ranks := ListRank(l, Options{Procs: 4})
	want := l.RanksRef()
	for i := range want {
		if ranks[i] != want[i] {
			t.Fatalf("rank mismatch at %d", i)
		}
	}
}

func TestFacadeMatMulJacobi(t *testing.T) {
	a := &Matrix{Rows: 2, Cols: 2, Data: []float64{1, 2, 3, 4}}
	b := &Matrix{Rows: 2, Cols: 2, Data: []float64{5, 6, 7, 8}}
	c := MatMul(a, b, Options{Procs: 2})
	want := []float64{19, 22, 43, 50}
	for i := range want {
		if c.Data[i] != want[i] {
			t.Fatalf("MatMul = %v", c.Data)
		}
	}
	g := &Grid{N: 4, Data: make([]float64, 16)}
	g.Set(0, 1, 100)
	out := Jacobi(g, 3, Options{Procs: 2})
	if out.At(0, 1) != 100 {
		t.Fatal("Jacobi boundary")
	}
}

func TestFacadeExperiments(t *testing.T) {
	ids := ExperimentIDs()
	if len(ids) != 28 || ids[0] != "E1" { // E1..E29 with E22 retired
		t.Fatalf("ExperimentIDs = %v", ids)
	}
	var buf bytes.Buffer
	cfg := ExperimentConfig{Quick: true, Reps: 1, Procs: []int{1}, VProcs: []int{1, 4}}
	if !RunExperiment("E13", cfg, &buf) {
		t.Fatal("E13 missing")
	}
	if !strings.Contains(buf.String(), "winner") {
		t.Fatalf("E13 output:\n%s", buf.String())
	}
	if RunExperiment("nope", cfg, &buf) {
		t.Fatal("phantom experiment ran")
	}
}

func TestFacadeAdaptive(t *testing.T) {
	opts := Adaptive()
	if opts.Adaptive == nil {
		t.Fatal("Adaptive() returned no controller")
	}
	// Request parallelism explicitly so the controller has something
	// to tune even on a single-CPU runner.
	opts.Procs = 4
	xs := RandomInts(30_000, 99)
	want := append([]int64(nil), xs...)
	SequentialSort(want)
	for round := 0; round < 8; round++ {
		got := append([]int64(nil), xs...)
		Sort(got, opts)
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("round %d: adaptive Sort[%d] = %d, want %d", round, i, got[i], want[i])
			}
		}
	}
	if st := DefaultAdaptiveStats(); st.Decisions == 0 {
		t.Fatalf("no adaptive decisions recorded: %+v", st)
	}
	ded := NewAdaptiveController()
	got := Sum(xs, Options{Procs: 2, Adaptive: ded})
	var want2 int64
	for _, x := range xs {
		want2 += x
	}
	if got != want2 {
		t.Fatalf("dedicated-controller Sum = %d, want %d", got, want2)
	}
}

// The Example functions below double as the package's godoc snippets:
// `go test` compiles and runs them, so the documented usage of each
// runtime layer (executor, scratch, adaptive tuning, server)
// can never drift from the real API.

// ExampleNewExecutor pins a dedicated worker pool, isolating one
// workload's parallelism from the process-wide executor.
func ExampleNewExecutor() {
	e := NewExecutor(4)
	defer e.Close()
	xs := RandomInts(1<<15, 1)
	Sort(xs, Options{Executor: e})
	fmt.Println(sort.SliceIsSorted(xs, func(i, j int) bool { return xs[i] < xs[j] }), e.Procs())
	// Output: true 4
}

// ExampleNewScratchPool pins a dedicated scratch pool; after the
// kernels return, every pooled temporary has been released (live
// bytes drop to zero) and stays cached for the next call.
func ExampleNewScratchPool() {
	pool := NewScratchPool()
	xs := RandomInts(1<<14, 2)
	Sort(xs, Options{Procs: 4, Scratch: pool})
	st := pool.Stats()
	fmt.Println(st.BytesLive, st.BytesPooled > 0)
	// Output: 0 true
}

// ExampleAdaptive runs a kernel under the online tuning runtime
// instead of hand-picking grain/policy/cutoff values.
func ExampleAdaptive() {
	opts := Adaptive()
	opts.Procs = 4 // parallelism to tune over, even on a 1-CPU runner
	xs := RandomInts(1<<14, 3)
	buf := make([]int64, len(xs))
	for round := 0; round < 4; round++ {
		copy(buf, xs)
		Sort(buf, opts) // first calls explore, later calls exploit
	}
	st := DefaultAdaptiveStats()
	fmt.Println(st.Decisions > 0, sort.SliceIsSorted(buf, func(i, j int) bool { return buf[i] < buf[j] }))
	// Output: true true
}

// ExampleNewServer serves typed requests from multiple tenants
// through the batched admission-control runtime.
func ExampleNewServer() {
	srv := NewServer(ServerConfig{})
	defer srv.Close()
	xs := []int64{5, 3, 1, 4, 2}
	if err := ServeSort(srv, "tenant-a", xs); err != nil {
		panic(err)
	}
	median, err := ServeSelect(srv, "tenant-b", []int64{9, 7, 8, 6, 5}, 2)
	if err != nil {
		panic(err)
	}
	fmt.Println(xs, median, srv.Stats().Completed)
	// Output: [1 2 3 4 5] 7 2
}

// TestFacadeServerSLO pins the deadline surface of the public API: a
// ServerConfig.SLO server serves a healthy request normally, and the
// exported sentinel matches the one the serve layer returns.
func TestFacadeServerSLO(t *testing.T) {
	srv := NewServer(ServerConfig{SLO: time.Second})
	defer srv.Close()
	xs := []int64{5, 3, 1, 4, 2}
	if err := ServeSort(srv, "tenant-a", xs); err != nil {
		t.Fatalf("sort under SLO: %v", err)
	}
	if xs[0] != 1 || xs[4] != 5 {
		t.Fatalf("sorted = %v", xs)
	}
	st := srv.Stats()
	if st.DeadlineRejected != 0 || st.Expired != 0 {
		t.Fatalf("healthy request tripped deadlines: %+v", st)
	}
	if ErrRequestDeadlineExceeded == nil || ErrRequestDeadlineExceeded.Error() == "" {
		t.Fatal("ErrRequestDeadlineExceeded not exported")
	}
}

func TestFacadeResultCache(t *testing.T) {
	cache := NewResultCache(ResultCacheConfig{})
	srv := NewServer(ServerConfig{Cache: cache})
	defer srv.Close()
	xs := []int64{9, 1, 7}
	for i := 0; i < 3; i++ {
		copy(xs, []int64{9, 1, 7})
		if err := ServeSort(srv, "tenant-a", xs); err != nil {
			t.Fatalf("sort %d: %v", i, err)
		}
		if xs[0] != 1 || xs[2] != 9 {
			t.Fatalf("sorted = %v", xs)
		}
	}
	if st := srv.Stats(); st.CacheHits != 2 || st.CacheMisses != 1 {
		t.Fatalf("server cache counters = %+v, want 2 hits / 1 miss", st)
	}
	var cs ResultCacheStats = cache.Stats()
	if cs.Hits != 2 || cs.Entries != 1 {
		t.Fatalf("cache stats = %+v", cs)
	}
	// Invalidation: the tenant's data changed, so the entry must die
	// and the same bytes must recompute.
	srv.BumpGeneration("tenant-a")
	copy(xs, []int64{9, 1, 7})
	if err := ServeSort(srv, "tenant-a", xs); err != nil {
		t.Fatalf("post-bump sort: %v", err)
	}
	if cs := cache.Stats(); cs.Invalidations != 1 || cs.Hits != 2 {
		t.Fatalf("post-bump cache stats = %+v", cs)
	}
}

func TestFacadeShardedServer(t *testing.T) {
	srv := NewShardedServer(ShardedServerConfig{Shards: 2, ShardProcs: 1})
	defer srv.Close()
	xs := RandomInts(5000, 7)
	want := append([]int64(nil), xs...)
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	for c := 0; c < 4; c++ {
		tenant := fmt.Sprintf("tenant-%d", c)
		ys := append([]int64(nil), xs...)
		if err := ServeSort(srv, tenant, ys); err != nil {
			t.Fatalf("sort: %v", err)
		}
		for i := range want {
			if ys[i] != want[i] {
				t.Fatalf("tenant %s sort mismatch at %d", tenant, i)
			}
		}
	}
	st := srv.Stats()
	if st.Shards != 2 || len(st.PerShard) != 2 {
		t.Fatalf("stats shards = %d/%d, want 2", st.Shards, len(st.PerShard))
	}
	if st.Aggregate.Completed != 4 || st.Aggregate.Accepted != 4 {
		t.Fatalf("aggregate = %+v, want 4 accepted/completed", st.Aggregate)
	}
	if srv.Shards() != 2 {
		t.Fatalf("Shards() = %d, want 2", srv.Shards())
	}
}

// ExampleNewShardedServer submits through the typed helpers twice:
// in-process on the sharded server, and — the helpers take any Front —
// through a client dialled at a wire listener in front of it.
func ExampleNewShardedServer() {
	srv := NewShardedServer(ShardedServerConfig{Shards: 2, ShardProcs: 1})
	defer srv.Close()
	xs := []int64{5, 3, 1, 4, 2}
	if err := ServeSort(srv, "tenant-a", xs); err != nil {
		panic(err)
	}
	l, err := NewListener("tcp", "127.0.0.1:0", srv, WireListenerConfig{})
	if err != nil {
		panic(err)
	}
	defer l.Close()
	cl, err := DialClient("tcp", l.Addr().String())
	if err != nil {
		panic(err)
	}
	defer cl.Close()
	sum, err := ServeSum(cl, "tenant-b", []int64{9, 7, 8})
	if err != nil {
		panic(err)
	}
	fmt.Println(xs, sum, srv.Stats().Aggregate.Completed)
	// Output: [1 2 3 4 5] 24 2
}
