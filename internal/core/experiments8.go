package core

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/adapt"
	"repro/internal/gen"
	"repro/internal/loadgen"
	"repro/internal/perf"
	"repro/internal/serve"
)

// Seventh batch of extension experiments: measurement methodology —
// what the load harness itself does to the tail-latency numbers.

func init() {
	Experiments = append(Experiments,
		Experiment{"E26", "Table 16", "Coordinated omission: closed-loop vs open-loop serving at matched offered load", E26OpenLoop},
	)
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

	reqs := 4000
	if cfg.Quick {
		reqs = 600
	}
	base := gen.Ints(n, gen.Uniform, cfg.seed())
	bucket := func(v int64) int { return int(uint64(v) % 1024) }

	newServer := func(slo time.Duration) *serve.Server {
		scfg := serve.Config{Executor: cfg.Executor, Scratch: cfg.Scratch, Workers: workers, SLO: slo}
		if cfg.Adaptive {
			scfg.Adaptive = adapt.Default()
		}
		return serve.New(scfg)
	}

	// Closed loop at full throttle: its achieved rate is the offered
	// load every open-loop row replays.
	srv := newServer(0)
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
			hist := make([]int, 1024)
			for {
				i := int(next.Add(1)) - 1
				if i >= reqs {
					return
				}
				copy(xs, base)
				t0 := time.Now()
				if i%2 == 0 {
					_ = serve.Sort(srv, tenant, xs)
				} else {
					_ = serve.Histogram(srv, tenant, hist, xs, bucket)
				}
				lat[i] = time.Since(t0).Seconds()
			}
		}(c)
	}
	wg.Wait()
	wall := time.Since(start)
	srv.Close()
	rate := float64(reqs) / wall.Seconds()
	closedP99 := perf.Percentile(lat, 99)
	t.AddRowf("closed-loop", reqs, int(rate+0.5), reqs, 0,
		perf.Percentile(lat, 50)*1e6, closedP99*1e6, "-", "-")

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
	for _, row := range rows {
		srv := newServer(row.slo)
		var sched loadgen.Schedule
		if row.poisson {
			sched = loadgen.Poisson(reqs, rate, cfg.seed())
		} else {
			sched = loadgen.Constant(reqs, rate)
		}
		type bufs struct {
			xs   []int64
			hist []int
		}
		pool := sync.Pool{New: func() any {
			return &bufs{xs: make([]int64, n), hist: make([]int, 1024)}
		}}
		res := loadgen.Run(sched, func(i int) error {
			bf := pool.Get().(*bufs)
			defer pool.Put(bf)
			copy(bf.xs, base)
			tenant := string(rune('a' + i%4))
			if i%2 == 0 {
				return serve.Sort(srv, tenant, bf.xs)
			}
			return serve.Histogram(srv, tenant, bf.hist, bf.xs, bucket)
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
