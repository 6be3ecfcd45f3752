package core

// The scheduling ablations: loop policies, grain size, and work
// stealing against static partitioning.

import (
	"fmt"
	"runtime"

	"repro/internal/gen"
	"repro/internal/par"
	"repro/internal/perf"
	"repro/internal/psort"
	"repro/internal/sched"
)

// E10Schedule regenerates Figure 4: scheduling policies on uniform vs
// skewed per-iteration work.
func E10Schedule(cfg Config) *perf.Table {
	n := cfg.size(1<<14, 1<<10)
	totalWork := cfg.size(1<<24, 1<<18)
	p := runtime.GOMAXPROCS(0)
	r := cfg.runner()
	uniform := make([]int, n)
	for i := range uniform {
		uniform[i] = totalWork / n
	}
	skewed := gen.SkewedWork(n, totalWork, 0.001, cfg.WorkloadSeed())
	t := perf.NewTable(
		fmt.Sprintf("Figure 4: loop schedules, n=%d iterations, P=%d", n, p),
		"workload", "policy", "time", "vs-static")
	for _, w := range []struct {
		name string
		work []int
	}{{"uniform", uniform}, {"skewed", skewed}} {
		staticT := 0.0
		for _, pol := range par.Policies {
			opts := cfg.opts(p, pol, 16)
			m := r.Time(func(int) {
				par.For(n, opts, func(i int) { spin(w.work[i]) })
			}).Median
			if pol == par.Static {
				staticT = m
			}
			t.AddRowf(w.name, pol.String(), perf.FormatDuration(m), m/staticT)
		}
	}
	return t
}

// spin burns approximately units of arithmetic work.
func spin(units int) {
	acc := uint64(1)
	for i := 0; i < units; i++ {
		acc = acc*6364136223846793005 + 1442695040888963407
	}
	if acc == 0 { // defeat dead-code elimination
		panic("unreachable")
	}
}

// E11Grain regenerates Figure 5: the grain-size U-curve for a cheap-body
// parallel reduction.
func E11Grain(cfg Config) *perf.Table {
	n := cfg.size(1<<22, 1<<16)
	xs := gen.Ints(n, gen.Uniform, cfg.WorkloadSeed())
	p := runtime.GOMAXPROCS(0)
	t := perf.NewTable(
		fmt.Sprintf("Figure 5: grain-size tuning for dynamic-schedule sum, n=%d, P=%d", n, p),
		"grain", "time", "vs-best")
	grains := PowersOfTwo(6, 20)
	res := TuneGrain(grains, cfg.reps(), func(grain int) {
		par.Sum(xs, cfg.opts(p, par.Dynamic, grain))
	})
	best := res.Seconds[res.Best]
	for _, g := range grains {
		t.AddRowf(g, perf.FormatDuration(res.Seconds[g]), res.Seconds[g]/best)
	}
	t.AddRowf(fmt.Sprintf("best=%d", res.Best), perf.FormatDuration(best), 1.0)
	return t
}

// E12Steal regenerates Table 7: work stealing vs static loop partitioning
// on a skewed task tree.
func E12Steal(cfg Config) *perf.Table {
	depth := cfg.size(22, 14)
	p := runtime.GOMAXPROCS(0)
	r := cfg.runner()
	t := perf.NewTable(
		fmt.Sprintf("Table 7: irregular tree (depth %d), P=%d", depth, p),
		"scheduler", "time", "steals", "steal-attempts")

	// The workload: an unbalanced recursion (a second child only every
	// third level) — static partitioning over its leaf list clusters
	// the heavy subtrees onto few workers.
	pool := sched.NewPoolOn(cfg.Executor, p)
	var root func(d int) sched.Task
	root = func(d int) sched.Task {
		return func(w *sched.Worker) {
			if d <= 0 {
				spin(20000)
				return
			}
			w.Spawn(root(d - 1))
			if d%3 == 0 {
				w.Spawn(root(d - 2))
			}
		}
	}
	m := r.Time(func(int) { pool.Run(root(depth)) }).Median
	t.AddRowf("work-stealing", perf.FormatDuration(m), int(pool.Steals()), int(pool.StealAttempts()))

	// Static emulation: expand the same tree sequentially to a task
	// list, then par.For over it with static scheduling. The list order
	// clusters heavy subtrees, reproducing the imbalance.
	var tasks []int
	var expand func(d int)
	expand = func(d int) {
		if d <= 0 {
			tasks = append(tasks, 20000)
			return
		}
		expand(d - 1)
		if d%3 == 0 {
			expand(d - 2)
		}
	}
	expand(depth)
	for _, pol := range []par.Policy{par.Static, par.Guided} {
		m := r.Time(func(int) {
			par.For(len(tasks), cfg.opts(p, pol, 64), func(i int) { spin(tasks[i]) })
		}).Median
		t.AddRowf("loop-"+pol.String(), perf.FormatDuration(m), "-", "-")
	}
	return t
}

// E20StealSort regenerates Table 11: the work-stealing quicksort against
// the loop-parallel sorters on uniform and adversarial inputs, with
// steal statistics.
func E20StealSort(cfg Config) *perf.Table {
	n := cfg.size(1<<20, 1<<14)
	p := runtime.GOMAXPROCS(0)
	r := cfg.runner()
	pool := sched.NewPoolOn(cfg.Executor, p)
	t := perf.NewTable(
		fmt.Sprintf("Table 11: task- vs loop-parallel sorting, n=%d, P=%d", n, p),
		"algorithm", "distribution", "time", "steals")
	for _, d := range []gen.Distribution{gen.Uniform, gen.Sorted, gen.FewUnique} {
		master := gen.Ints(n, d, cfg.WorkloadSeed())
		buf := make([]int64, n)
		m := r.Time(func(int) {
			copy(buf, master)
			psort.QuickSortSteal(buf, pool)
		}).Median
		t.AddRowf("steal-quicksort", d.String(), perf.FormatDuration(m), int(pool.Steals()))
		m = r.Time(func(int) {
			copy(buf, master)
			psort.SampleSort(buf, cfg.opts(p, par.Static, 0))
		}).Median
		t.AddRowf("samplesort", d.String(), perf.FormatDuration(m), "-")
		m = r.Time(func(int) {
			copy(buf, master)
			psort.MergeSort(buf, cfg.opts(p, par.Static, 0))
		}).Median
		t.AddRowf("mergesort", d.String(), perf.FormatDuration(m), "-")
	}
	return t
}
