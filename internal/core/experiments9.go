package core

import (
	"sync"
	"time"

	"repro/internal/gen"
	"repro/internal/kernel"
	"repro/internal/perf"
	"repro/internal/rescache"
	"repro/internal/serve"
)

// Eighth batch of extension experiments: what repeated and
// incrementally-updated requests cost once the serving layer can
// recognize them.

func init() {
	Experiments = append(Experiments,
		Experiment{"E27", "Table 17", "Result cache: cold vs warm-hit vs delta-update serving latency", E27ResultCache},
	)
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

	scfg := serve.Config{
		Executor: cfg.Executor,
		Scratch:  cfg.Scratch,
		Workers:  workers,
		Cache:    rescache.New(rescache.Config{Pool: cfg.Scratch}),
	}
	srv := serve.New(scfg)
	defer srv.Close()
	const tenant = "t"

	base := gen.Ints(n, gen.Uniform, cfg.seed())

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
				app := gen.Ints(chunk, gen.Uniform, cfg.seed()+uint64(100+rep))
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

	// Phase 1, idle: the cold floor (every rep a distinct input, so a
	// distinct fingerprint — the cache never short-circuits it), then
	// prime one warm record per kernel (miss + insert).
	for _, c := range cases {
		k := kernel.MustLookup(c.name)
		idle := timeCall(func(rep int) (*kernel.Args, *kernel.Kernel) {
			return c.newArgs(gen.Ints(n, gen.Uniform, cfg.seed()+uint64(rep)+1)), k
		}, false, minOf)
		xs := make([]int64, n)
		copy(xs, base)
		a := c.newArgs(xs)
		if err := srv.CallBudget(tenant, k, a, 0); err != nil {
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
			xs := gen.Ints(n, gen.Uniform, cfg.seed()+uint64(1000+b))
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
			return c.newArgs(gen.Ints(n, gen.Uniform, cfg.seed()+uint64(10+rep))), r.k
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
