package serve

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/kernel"
	"repro/internal/par"
	"repro/internal/pgraph"
	"repro/internal/rng"
)

// randInts returns n pseudo-random keys from seed.
func randInts(n int, seed uint64) []int64 {
	r := rng.New(seed)
	xs := make([]int64, n)
	for i := range xs {
		xs[i] = int64(r.Uint64()%200003) - 100001
	}
	return xs
}

func sortedOracle(xs []int64) []int64 {
	want := append([]int64(nil), xs...)
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	return want
}

// TestServeMixedConcurrent drives every request type from concurrent
// tenants and checks each result against a sequential oracle.
func TestServeMixedConcurrent(t *testing.T) {
	s := NewSharded(ShardedConfig{Shards: 1, ShardProcs: 4})
	defer s.Close()

	g := gen.ErdosRenyi(300, 4, false, 7)
	wantDist := pgraph.BFS(g, 0, par.Options{Procs: 1})

	const tenants = 4
	const reqs = 30
	var wg sync.WaitGroup
	errs := make(chan error, tenants*reqs)
	for tn := 0; tn < tenants; tn++ {
		wg.Add(1)
		go func(tn int) {
			defer wg.Done()
			name := string(rune('a' + tn))
			for i := 0; i < reqs; i++ {
				seed := uint64(tn*1000 + i)
				n := 100 + int(seed%3000)
				xs := randInts(n, seed)
				switch i % 6 {
				case 0:
					want := sortedOracle(xs)
					if err := Sort(s, name, xs); err != nil {
						errs <- err
						continue
					}
					for j := range want {
						if xs[j] != want[j] {
							t.Errorf("sort mismatch at %d", j)
							break
						}
					}
				case 1:
					k := int(seed) % n
					got, err := Select(s, name, xs, k)
					if err != nil {
						errs <- err
						continue
					}
					if want := sortedOracle(xs)[k]; got != want {
						t.Errorf("select(%d) = %d, want %d", k, got, want)
					}
				case 2:
					hist := make([]int, 64)
					bucket := func(v int64) int { return int(uint64(v) % 64) }
					if err := Histogram(s, name, hist, xs, bucket); err != nil {
						errs <- err
						continue
					}
					want := make([]int, 64)
					for _, v := range xs {
						want[bucket(v)]++
					}
					for j := range want {
						if hist[j] != want[j] {
							t.Errorf("hist[%d] = %d, want %d", j, hist[j], want[j])
							break
						}
					}
				case 3:
					dst := make([]int64, n)
					if err := Scan(s, name, dst, xs); err != nil {
						errs <- err
						continue
					}
					var run int64
					for j, v := range xs {
						run += v
						if dst[j] != run {
							t.Errorf("scan[%d] = %d, want %d", j, dst[j], run)
							break
						}
					}
				case 4:
					got, err := Sum(s, name, xs)
					if err != nil {
						errs <- err
						continue
					}
					var want int64
					for _, v := range xs {
						want += v
					}
					if got != want {
						t.Errorf("sum = %d, want %d", got, want)
					}
				case 5:
					dist, err := BFS(s, name, g, 0)
					if err != nil {
						errs <- err
						continue
					}
					for j := range wantDist {
						if dist[j] != wantDist[j] {
							t.Errorf("bfs dist[%d] = %d, want %d", j, dist[j], wantDist[j])
							break
						}
					}
				}
			}
		}(tn)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("request failed: %v", err)
	}

	st := s.Stats().Aggregate
	if st.Accepted != tenants*reqs || st.Completed != tenants*reqs {
		t.Fatalf("accepted=%d completed=%d, want %d", st.Accepted, st.Completed, tenants*reqs)
	}
	if st.Tenants != tenants {
		t.Fatalf("tenants = %d, want %d", st.Tenants, tenants)
	}
	if st.Batches == 0 || st.BatchedRequests != st.Accepted {
		t.Fatalf("batches=%d batched=%d accepted=%d", st.Batches, st.BatchedRequests, st.Accepted)
	}
}

// TestServeBatchCoalescing checks that concurrent small requests
// actually fuse: with many sync clients against one dispatcher, some
// batch must carry more than one request.
func TestServeBatchCoalescing(t *testing.T) {
	s := NewSharded(ShardedConfig{Shards: 1, ShardProcs: 4})
	defer s.Close()

	const clients = 8
	const each = 50
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			xs := randInts(512, uint64(c))
			for i := 0; i < each; i++ {
				if _, err := Sum(s, "t", xs); err != nil {
					t.Errorf("sum: %v", err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	st := s.Stats().Aggregate
	if st.MaxBatch < 2 {
		t.Fatalf("no coalescing: maxBatch = %d over %d batches", st.MaxBatch, st.Batches)
	}
	if st.Batches >= st.BatchedRequests {
		t.Fatalf("batches=%d >= requests=%d: nothing fused", st.Batches, st.BatchedRequests)
	}
}

// TestServeFairShare floods one tenant against a tiny queue bound and
// checks the light tenant is never starved or rejected: round-robin
// batch formation plus per-tenant queues isolate it completely.
func TestServeFairShare(t *testing.T) {
	s := NewSharded(ShardedConfig{Shards: 1, ShardProcs: 2, Config: Config{MaxQueue: 2}})
	defer s.Close()

	stop := make(chan struct{})
	var hotRejected atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < 16; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			xs := randInts(4096, uint64(c))
			for {
				select {
				case <-stop:
					return
				default:
				}
				if err := Sort(s, "hot", xs); errors.Is(err, ErrRejected) {
					hotRejected.Add(1)
				} else if err != nil {
					t.Errorf("hot: %v", err)
					return
				}
			}
		}(c)
	}

	xs := randInts(2048, 99)
	for i := 0; i < 30; i++ {
		hist := make([]int, 16)
		if err := Histogram(s, "light", hist, xs, func(v int64) int { return int(uint64(v) % 16) }); err != nil {
			t.Fatalf("light request %d failed under hot-tenant flood: %v", i, err)
		}
	}
	close(stop)
	wg.Wait()

	for _, ts := range s.TenantStats() {
		if ts.Name == "light" && ts.Rejected != 0 {
			t.Fatalf("light tenant saw %d rejections", ts.Rejected)
		}
	}
	if hotRejected.Load() == 0 {
		t.Log("note: hot tenant saw no backpressure this run (timing-dependent)")
	}
}

// TestServeBackpressure fills a one-slot queue from many goroutines
// and checks the overflow is rejected with ErrRejected while every
// admitted request still completes correctly.
func TestServeBackpressure(t *testing.T) {
	s := NewSharded(ShardedConfig{Shards: 1, ShardProcs: 1, Config: Config{MaxQueue: 1}})
	defer s.Close()

	const clients = 16
	var rejected, completed atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			xs := randInts(2048, uint64(c))
			for i := 0; i < 20; i++ {
				want := sortedOracle(xs)
				err := Sort(s, "t", xs)
				switch {
				case errors.Is(err, ErrRejected):
					rejected.Add(1)
				case err != nil:
					t.Errorf("sort: %v", err)
				default:
					completed.Add(1)
					for j := range want {
						if xs[j] != want[j] {
							t.Errorf("admitted sort corrupted at %d", j)
							return
						}
					}
				}
			}
		}(c)
	}
	wg.Wait()
	if completed.Load() == 0 {
		t.Fatal("no request completed")
	}
	st := s.Stats().Aggregate
	if st.Rejected != rejected.Load() {
		t.Fatalf("stats.Rejected = %d, callers saw %d", st.Rejected, rejected.Load())
	}
}

// TestServeShedUnderSaturation parks blocking tasks on every pooled
// worker of the shard's executor so Occupancy reads 1.0, then checks
// batches shed to serial execution (and still compute correct results).
func TestServeShedUnderSaturation(t *testing.T) {
	s := NewSharded(ShardedConfig{Shards: 1, ShardProcs: 2})
	e := s.Executors().Shard(0)
	release := make(chan struct{})
	e.Submit(func() { <-release })
	e.Submit(func() { <-release })
	for i := 0; e.Occupancy() < 1 && i < 1000; i++ {
		time.Sleep(time.Millisecond)
	}
	if e.Occupancy() < 1 {
		close(release)
		s.Close()
		t.Skip("could not saturate the pool")
	}

	var wg sync.WaitGroup
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			xs := randInts(1024, uint64(c))
			want := sortedOracle(xs)
			if err := Sort(s, "t", xs); err != nil {
				t.Errorf("sort under saturation: %v", err)
				return
			}
			for j := range want {
				if xs[j] != want[j] {
					t.Errorf("shed sort mismatch at %d", j)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	st := s.Stats().Aggregate
	if st.Shed == 0 {
		t.Fatalf("no batch shed at occupancy 1.0: %+v", st)
	}
	if st.ParallelBatches != 0 {
		t.Fatalf("parallel batches ran on a saturated pool: %+v", st)
	}
	close(release)
	s.Close()
}

// TestServePipelineRoute checks long requests bypass the batch path
// onto the long route, including the aliased-scan case.
func TestServePipelineRoute(t *testing.T) {
	s := NewSharded(ShardedConfig{Shards: 1, ShardProcs: 2, Config: Config{PipelineCutoff: 4096}})
	defer s.Close()

	xs := randInts(20000, 5)
	want := sortedOracle(xs)
	if err := Sort(s, "t", xs); err != nil {
		t.Fatalf("pipelined sort: %v", err)
	}
	for j := range want {
		if xs[j] != want[j] {
			t.Fatalf("pipelined sort mismatch at %d", j)
		}
	}

	ys := randInts(20000, 6)
	wantScan := make([]int64, len(ys))
	var run int64
	for j, v := range ys {
		run += v
		wantScan[j] = run
	}
	if err := Scan(s, "t", ys, ys); err != nil { // dst aliases xs
		t.Fatalf("pipelined scan: %v", err)
	}
	for j := range wantScan {
		if ys[j] != wantScan[j] {
			t.Fatalf("aliased pipelined scan mismatch at %d", j)
		}
	}

	st := s.Stats().Aggregate
	if st.Pipelined != 2 {
		t.Fatalf("pipelined = %d, want 2", st.Pipelined)
	}
	if st.BatchedRequests != 0 {
		t.Fatalf("long requests leaked onto the batch path: %+v", st)
	}
	if st.Completed != 2 || st.Accepted != 2 {
		t.Fatalf("accepted=%d completed=%d, want 2", st.Accepted, st.Completed)
	}
}

// streamtestHook is what the streamtest kernel's Stream runs; each
// pipeline-route lifecycle test installs its own before calling.
var streamtestHook func(a *kernel.Args, opts par.Options) error

// kernelStreamtest is a test-only registration (see kernelCachetest)
// whose streaming adapter is whatever the running test needs the
// pipeline route to do on its caller's goroutine: block, dispatch onto
// the executor it was handed, panic.
var kernelStreamtest = kernel.Register(kernel.Kernel{
	Name:     "streamtest",
	Title:    "test-only: Stream runs streamtestHook",
	Variants: []kernel.Variant{{Name: "noop", Run: func(*kernel.Args, par.Options) {}}},
	Serial:   func(*kernel.Args) {},
	Gen:      func(n int, _ uint64) *kernel.Args { return &kernel.Args{Xs: make([]int64, n)} },
	Check:    func(_, _ *kernel.Args) error { return nil },
	Stream:   func(a *kernel.Args, opts par.Options) error { return streamtestHook(a, opts) },
})

// TestCloseWaitsForStream pins Close against the pipeline route: a
// long request runs on its caller's goroutine, outside the queues, and
// Close must still wait for it — Sharded.Close closes the shard
// executors next, and a stream dispatching onto a closed executor
// panics the process ("exec: Submit on closed Executor").
func TestCloseWaitsForStream(t *testing.T) {
	started, release := make(chan struct{}), make(chan struct{})
	streamtestHook = func(a *kernel.Args, opts par.Options) error {
		close(started)
		<-release
		// Dispatch onto the executor the server handed over, with the
		// parallelism pinned so a 1-core box still submits to it.
		opts.Procs, opts.SerialCutoff = 2, 1
		var n atomic.Int64
		par.For(len(a.Xs), opts, func(int) { n.Add(1) })
		a.Out = n.Load()
		return nil
	}
	g := NewSharded(ShardedConfig{Shards: 2, ShardProcs: 1})
	a := kernel.Args{Xs: make([]int64, DefaultPipelineCutoff)}
	callErr := make(chan error, 1)
	go func() { callErr <- g.CallBudget("t", kernelStreamtest, &a, 0) }()
	<-started

	closed := make(chan struct{})
	go func() {
		g.Close()
		close(closed)
	}()
	select {
	case <-closed:
		t.Error("Close returned while a pipeline-route request was still running")
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	if err := <-callErr; err != nil {
		t.Fatalf("stream call racing Close = %v, want nil", err)
	}
	if a.Out != DefaultPipelineCutoff {
		t.Fatalf("stream ran %d of %d iterations", a.Out, DefaultPipelineCutoff)
	}
	<-closed

	st := g.Stats().Aggregate
	if st.Accepted != st.Completed+st.Expired || st.Pipelined != 1 {
		t.Fatalf("drain accounting after Close: %+v", st)
	}
	if err := g.CallBudget("t", kernelStreamtest, &a, 0); !errors.Is(err, ErrClosed) {
		t.Fatalf("stream call after Close = %v, want ErrClosed", err)
	}
}

// TestServeClose checks drain-then-reject semantics.
func TestServeClose(t *testing.T) {
	s := NewSharded(ShardedConfig{Shards: 1, ShardProcs: 2})
	xs := randInts(1000, 1)
	if _, err := Sum(s, "t", xs); err != nil {
		t.Fatalf("sum: %v", err)
	}
	s.Close()
	s.Close() // idempotent
	if err := Sort(s, "t", xs); !errors.Is(err, ErrClosed) {
		t.Fatalf("Sort after Close = %v, want ErrClosed", err)
	}
	if _, err := Select(s, "t", xs, 0); !errors.Is(err, ErrClosed) {
		t.Fatalf("Select after Close = %v, want ErrClosed", err)
	}
	if err := Sort(s, "t", make([]int64, 1<<18)); !errors.Is(err, ErrClosed) {
		t.Fatalf("pipelined Sort after Close = %v, want ErrClosed", err)
	}
}

// TestServeValidation checks malformed requests fail fast, before
// admission.
func TestServeValidation(t *testing.T) {
	s := NewSharded(ShardedConfig{Shards: 1})
	defer s.Close()
	xs := []int64{3, 1, 2}
	if _, err := Select(s, "t", xs, 3); err == nil {
		t.Fatal("Select rank out of range accepted")
	}
	if _, err := Select(s, "t", xs, -1); err == nil {
		t.Fatal("Select negative rank accepted")
	}
	if err := Histogram(s, "t", make([]int, 4), xs, nil); err == nil {
		t.Fatal("Histogram nil bucket accepted")
	}
	if err := Scan(s, "t", make([]int64, 2), xs); err == nil {
		t.Fatal("Scan length mismatch accepted")
	}
	if _, err := BFS(s, "t", nil, 0); err == nil {
		t.Fatal("BFS nil graph accepted")
	}
	if st := s.Stats().Aggregate; st.Accepted != 0 {
		t.Fatalf("invalid requests were admitted: %+v", st)
	}
}

// TestServePanicConfined checks a panicking kernel (bucket function
// out of range in a batch slot, a panicking Stream on the pipeline
// route) surfaces as that request's error, not a crash, and the server
// keeps serving.
func TestServePanicConfined(t *testing.T) {
	s := NewSharded(ShardedConfig{Shards: 1})
	defer s.Close()
	xs := randInts(5000, 2)
	err := Histogram(s, "t", make([]int, 4), xs, func(v int64) int { return 1 << 30 })
	if err == nil {
		t.Fatal("out-of-range bucket function did not error")
	}
	// Server still healthy afterwards.
	if _, err := Sum(s, "t", xs); err != nil {
		t.Fatalf("sum after confined panic: %v", err)
	}

	// The pipeline route runs on its caller's goroutine; a panic there
	// is confined the same way.
	streamtestHook = func(*kernel.Args, par.Options) error { panic("stream blew up") }
	a := kernel.Args{Xs: make([]int64, DefaultPipelineCutoff)}
	err = s.CallBudget("t", kernelStreamtest, &a, 0)
	if err == nil || !strings.Contains(err.Error(), "serve: request panicked") {
		t.Fatalf("panicking Stream = %v, want a serve: request panicked error", err)
	}
	if _, err := Sum(s, "t", xs); err != nil {
		t.Fatalf("sum after confined stream panic: %v", err)
	}
	if st := s.Stats().Aggregate; st.Accepted != st.Completed || st.Pipelined != 1 {
		t.Fatalf("accounting after confined panics: %+v", st)
	}
}

// TestServeTenantBound checks tenant accounting stays bounded under
// caller-controlled name cardinality: names beyond maxTenants fold
// into the shared overflow entry and are still served.
func TestServeTenantBound(t *testing.T) {
	s := NewSharded(ShardedConfig{Shards: 1})
	defer s.Close()
	const names, folded = maxTenants + 8, 8
	for i := 0; i < names; i++ {
		name := fmt.Sprintf("t%d", i)
		if _, err := Sum(s, name, []int64{int64(i), 1}); err != nil {
			t.Fatalf("sum from tenant %q: %v", name, err)
		}
	}
	st := s.Stats().Aggregate
	if st.Completed != names {
		t.Fatalf("completed = %d, want %d", st.Completed, names)
	}
	if st.Tenants > maxTenants+1 { // maxTenants named + the overflow entry
		t.Fatalf("tenant map grew to %d entries with maxTenants=%d", st.Tenants, maxTenants)
	}
	found := false
	for _, ts := range s.TenantStats() {
		if ts.Name == OverflowTenant && ts.Completed == folded {
			found = true
		}
	}
	if !found {
		t.Fatalf("overflow tenant missing or miscounted: %+v", s.TenantStats())
	}
}
