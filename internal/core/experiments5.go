package core

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/adapt"
	"repro/internal/gen"
	"repro/internal/par"
	"repro/internal/perf"
	"repro/internal/psort"
	"repro/internal/serve"
)

// Fourth batch of extension experiments: the request-serving runtime
// against the per-request dispatch every pre-serve entry point uses.

func init() {
	Experiments = append(Experiments,
		Experiment{"E23", "Table 13", "Request serving: batched admission vs per-request dispatch", E23Serve},
	)
}

// E23Serve regenerates Table 13: concurrent clients issuing small
// mixed requests (sort / histogram / scan / sum over 2K-element
// payloads — an aggregation-endpoint shape), handled either naively
// (each request invokes the parallel kernel directly, one fork/join
// per request) or through the serve runtime (admission control plus
// batch fusion: one fork/join per batch, kernels serial in their
// slots). Both modes run at worker count 4 on the harness executor
// and scratch pool. Columns report wall time, request throughput and
// client-observed latency percentiles; the expected shape is batched
// >= 1.5x naive throughput with a flatter tail as client concurrency
// grows.
func E23Serve(cfg Config) *perf.Table {
	const workers = 4
	const n = 2048
	t := perf.NewTable(
		"Table 13: request serving — batched admission vs per-request dispatch, W=4",
		"clients", "mode", "reqs", "time", "req/s", "p50(us)", "p95(us)", "p99(us)")

	reqs := 4000
	if cfg.Quick {
		reqs = 600
	}
	base := gen.Ints(n, gen.Uniform, cfg.seed())

	clientCounts := []int{4, 16}
	for _, clients := range clientCounts {
		for _, mode := range []string{"naive", "batched"} {
			var srv *serve.Server
			if mode == "batched" {
				scfg := serve.Config{Executor: cfg.Executor, Scratch: cfg.Scratch, Workers: workers}
				if cfg.Adaptive {
					scfg.Adaptive = adapt.Default()
				}
				srv = serve.New(scfg)
			}
			naiveOpts := cfg.opts(workers, par.Dynamic, 0)
			lat := make([]float64, reqs)
			var next atomic.Int64
			var wg sync.WaitGroup
			start := time.Now()
			for c := 0; c < clients; c++ {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					tenant := string(rune('a' + c%4))
					xs := make([]int64, n)
					dst := make([]int64, n)
					hist := make([]int, 1024)
					bucket := func(v int64) int { return int(uint64(v) % 1024) }
					add := func(a, b int64) int64 { return a + b }
					for {
						i := int(next.Add(1)) - 1
						if i >= reqs {
							return
						}
						copy(xs, base)
						t0 := time.Now()
						switch i % 4 {
						case 0:
							if srv != nil {
								_ = serve.Sort(srv, tenant, xs)
							} else {
								psort.SampleSort(xs, naiveOpts)
							}
						case 1:
							if srv != nil {
								_ = serve.Histogram(srv, tenant, hist, xs, bucket)
							} else {
								par.HistogramInto(hist, xs, naiveOpts, bucket)
							}
						case 2:
							if srv != nil {
								_ = serve.Scan(srv, tenant, dst, xs)
							} else {
								par.ScanInclusive(dst, xs, naiveOpts, 0, add)
							}
						case 3:
							if srv != nil {
								_, _ = serve.Sum(srv, tenant, xs)
							} else {
								par.Sum(xs, naiveOpts)
							}
						}
						lat[i] = time.Since(t0).Seconds()
					}
				}(c)
			}
			wg.Wait()
			wall := time.Since(start)
			if srv != nil {
				srv.Close()
			}
			t.AddRowf(clients, mode, reqs, perf.FormatDuration(wall.Seconds()),
				int(float64(reqs)/wall.Seconds()+0.5),
				perf.Percentile(lat, 50)*1e6,
				perf.Percentile(lat, 95)*1e6,
				perf.Percentile(lat, 99)*1e6)
		}
	}
	return t
}
