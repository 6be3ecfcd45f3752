package core

// The machine-model experiments: BSP calibration and prediction, the
// broadcast crossover, weak scaling on the simulated machine, and
// message aggregation under LogGP.

import (
	"fmt"

	"repro/internal/bsp"
	"repro/internal/gen"
	"repro/internal/machine"
	"repro/internal/perf"
)

// E9BSPPredict regenerates Table 6: calibrate (A,B,C) from scan traces,
// then predict the wall time of other kernels from their cost traces
// alone and report relative error.
func E9BSPPredict(cfg Config) *perf.Table {
	n := cfg.size(1<<18, 1<<13)
	xs := gen.Ints(n, gen.Uniform, cfg.WorkloadSeed())
	r := cfg.runner()

	// Calibration observations: scan over several virtual machine sizes
	// and problem sizes, so W, H and the superstep count vary
	// independently enough to fit 3 parameters.
	var obs []Observation
	for _, p := range []int{1, 2, 4, 8, 16, 32} {
		for _, frac := range []int{1, 4, 16} {
			in := xs[:n/frac]
			var stats *bsp.Stats
			secs := r.Time(func(int) { _, stats = bsp.ScanOn(cfg.Executor, in, p) }).Median
			obs = append(obs, Observation{Stats: stats, Seconds: secs})
			// Allreduce contributes a 3-superstep, low-h point so the
			// barrier term is identifiable (scan alone pins S at 2).
			secs = r.Time(func(int) { _, stats = bsp.SumAllReduceOn(cfg.Executor, in, p) }).Median
			obs = append(obs, Observation{Stats: stats, Seconds: secs})
		}
	}
	cal, err := Fit(obs)
	t := perf.NewTable(
		fmt.Sprintf("Table 6: BSP prediction vs measurement (n=%d; A=%.3g s/op, B=%.3g s/word, C=%.3g s/barrier)",
			n, cal.SecPerOp, cal.SecPerWord, cal.SecPerBarrier),
		"kernel", "P", "measured", "predicted", "rel-err")
	if err != nil {
		t.AddRowf("calibration-failed", "-", err.Error(), "-", "-")
		return t
	}
	type kernel struct {
		name string
		run  func(p int) *bsp.Stats
	}
	kernels := []kernel{
		{"scan", func(p int) *bsp.Stats { _, s := bsp.ScanOn(cfg.Executor, xs, p); return s }},
		{"allreduce", func(p int) *bsp.Stats { _, s := bsp.SumAllReduceOn(cfg.Executor, xs, p); return s }},
		{"samplesort", func(p int) *bsp.Stats { _, s := bsp.SampleSortOn(cfg.Executor, xs[:min(n, 1<<15)], p); return s }},
	}
	for _, k := range kernels {
		for _, p := range []int{4, 16} {
			var stats *bsp.Stats
			secs := r.Time(func(int) { stats = k.run(p) }).Median
			pred := cal.Predict(stats)
			t.AddRowf(k.name, p, perf.FormatDuration(secs), perf.FormatDuration(pred),
				RelativeError(pred, secs))
		}
	}
	return t
}

// E13Models regenerates Figure 6: the broadcast-algorithm crossover
// under the BSP cost model, plus the LogP prediction for the same
// pattern. Model-only: deterministic, no timing.
func E13Models(cfg Config) *perf.Table {
	t := perf.NewTable(
		"Figure 6: broadcast cost under BSP (direct vs tree) and LogP",
		"P", "g", "l", "bsp-direct", "bsp-tree", "winner", "logp-tree")
	for _, p := range cfg.vprocs() {
		if p < 2 {
			continue
		}
		_, direct := bsp.BroadcastDirectOn(cfg.Executor, 1, p)
		_, tree := bsp.BroadcastTreeOn(cfg.Executor, 1, p)
		for _, gl := range []struct{ g, l float64 }{{1, 10}, {1, 10000}, {50, 10}} {
			params := machine.BSPParams{P: p, G: gl.g, L: gl.l}
			cd, ct := direct.Cost(params), tree.Cost(params)
			winner := "direct"
			if ct < cd {
				winner = "tree"
			}
			logp := machine.LogPParams{L: gl.l, O: 1, G: gl.g, P: p}
			t.AddRowf(p, gl.g, gl.l, cd, ct, winner, logp.Broadcast())
		}
	}
	return t
}

// E15WeakScaling regenerates Figure 7: grow the problem with the
// machine (n = n0·P) and report the BSP cost per processor — flat cost
// means perfect weak scaling; the rise quantifies communication growth.
// The Gustafson model line is printed alongside.
func E15WeakScaling(cfg Config) *perf.Table {
	n0 := cfg.size(1<<14, 1<<10)
	t := perf.NewTable(
		fmt.Sprintf("Figure 7: weak scaling on the simulated machine, n = %d·P", n0),
		"kernel", "P", "n", "bsp-cost", "weak-eff", "gustafson-f0.05")
	params := machine.BSPParams{G: 2, L: 2000}

	// Scan: communication per processor is O(P), so weak efficiency
	// decays slowly with P.
	cost1 := 0.0
	for _, p := range cfg.vprocs() {
		xs := gen.Ints(n0*p, gen.Uniform, cfg.WorkloadSeed())
		_, stats := bsp.ScanOn(cfg.Executor, xs, p)
		params.P = p
		cost := stats.Cost(params)
		if p == 1 {
			cost1 = cost
		}
		t.AddRowf("scan", p, n0*p, cost, cost1/cost, perf.Gustafson(0.05, p)/float64(p))
	}
	// Matmul: n³ work with n²-ish communication; keep total work ∝ P by
	// growing the edge as P^(1/3). The 1D row-block kernel's weak
	// efficiency collapses; the 2D SUMMA kernel (√P× less traffic)
	// recovers most of it — the figure's punchline.
	side0 := cfg.size(48, 16)
	cost1 = 0.0
	for _, p := range cfg.vprocs() {
		side := side0
		for side*side*side < side0*side0*side0*p {
			side++
		}
		a := gen.RandomMatrix(side, side, cfg.WorkloadSeed())
		b := gen.RandomMatrix(side, side, cfg.WorkloadSeed()+1)
		_, stats := bsp.MatmulRowBlockOn(cfg.Executor, a.Data, b.Data, side, p)
		params.P = p
		cost := stats.Cost(params)
		if p == 1 {
			cost1 = cost
		}
		t.AddRowf("matmul-1d", p, side, cost, cost1/cost, perf.Gustafson(0.05, p)/float64(p))
	}
	cost1 = 0.0
	for _, q := range []int{1, 2, 4, 8} {
		p := q * q
		side := side0
		for side*side*side < side0*side0*side0*p {
			side++
		}
		a := gen.RandomMatrix(side, side, cfg.WorkloadSeed())
		b := gen.RandomMatrix(side, side, cfg.WorkloadSeed()+1)
		_, stats := bsp.MatmulSUMMAOn(cfg.Executor, a.Data, b.Data, side, q)
		params.P = p
		cost := stats.Cost(params)
		if p == 1 {
			cost1 = cost
		}
		t.AddRowf("matmul-2d", p, side, cost, cost1/cost, perf.Gustafson(0.05, p)/float64(p))
	}
	return t
}

// E18Aggregation regenerates Figure 8, the model-side answer to E9's
// sample-sort misprediction: under LogGP, aggregated bulk messages are
// cheaper per word than short messages by gap/Gap; the table shows the
// advantage across payload sizes and the per-word cost each BSP kernel
// actually induces in the runtime (words per message), explaining why a
// single fitted g over-charges bulk kernels.
func E18Aggregation(cfg Config) *perf.Table {
	t := perf.NewTable(
		"Figure 8: message aggregation — LogGP bulk advantage and kernel message granularity",
		"row", "value-1", "value-2", "value-3", "value-4")
	pp := machine.LogGPParams{L: 1000, O: 50, G: 100, GG: 1, P: 8}
	t.AddRow("payload-words", "1", "100", "10000", "1000000")
	t.AddRowf("loggp-bulk-advantage",
		pp.BulkAdvantage(1), pp.BulkAdvantage(100), pp.BulkAdvantage(10000), pp.BulkAdvantage(1000000))
	// Kernel message granularity: words moved per message in each BSP
	// kernel (1 for scan/allreduce/samplesort as implemented; n²/P for
	// the matmul panels). Derived from the cost traces.
	n := cfg.size(1<<12, 1<<8)
	xs := gen.Ints(n, gen.Uniform, cfg.WorkloadSeed())
	_, scanStats := bsp.ScanOn(cfg.Executor, xs, 8)
	_, sortStats := bsp.SampleSortOn(cfg.Executor, xs, 8)
	side := cfg.size(64, 16)
	a := gen.RandomMatrix(side, side, 1)
	b := gen.RandomMatrix(side, side, 2)
	_, mmStats := bsp.MatmulRowBlockOn(cfg.Executor, a.Data, b.Data, side, 8)
	t.AddRowf("kernel", "scan", "samplesort", "matmul-panels", "-")
	t.AddRowf("total-h-words", scanStats.TotalH(), sortStats.TotalH(), mmStats.TotalH(), 0.0)
	t.AddRowf("supersteps", scanStats.Supersteps(), sortStats.Supersteps(), mmStats.Supersteps(), 0)
	return t
}
