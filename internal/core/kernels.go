package core

// The kernel case studies: each parallel kernel against its sequential
// baselines, across inputs, worker counts and algorithm variants.

import (
	"fmt"
	"runtime"

	"repro/internal/bsp"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/machine"
	"repro/internal/par"
	"repro/internal/perf"
	"repro/internal/pgraph"
	"repro/internal/plist"
	"repro/internal/pmat"
	"repro/internal/psel"
	"repro/internal/psort"
	"repro/internal/pstencil"
	"repro/internal/seq"
)

// E1Scan regenerates Table 1: strong scaling of the parallel prefix-sum
// against the sequential sweep, on real workers and on the simulated BSP
// machine.
func E1Scan(cfg Config) *perf.Table {
	n := cfg.size(1<<22, 1<<16)
	xs := gen.Ints(n, gen.Uniform, cfg.WorkloadSeed())
	dst := make([]int64, n)
	r := cfg.runner()

	tseq := r.Time(func(int) { seq.Scan(dst, xs) }).Median
	t := perf.NewTable(
		fmt.Sprintf("Table 1: parallel scan, n=%d (seq sweep %s)", n, perf.FormatDuration(tseq)),
		"machine", "P", "time", "speedup-vs-seq", "efficiency")
	t1 := 0.0
	for _, p := range cfg.procs() {
		opts := cfg.opts(p, par.Static, 4096)
		m := r.Time(func(int) {
			par.ScanInclusive(dst, xs, opts, 0, func(a, b int64) int64 { return a + b })
		}).Median
		if p == 1 {
			t1 = m
		}
		t.AddRowf("real", p, perf.FormatDuration(m), perf.Speedup(tseq, m), perf.Efficiency(t1, m, p))
	}
	// Simulated machine: cost units, speedup relative to P=1 cost.
	params := machine.BSPParams{G: 2, L: 2000}
	cost1 := 0.0
	for _, p := range cfg.vprocs() {
		_, stats := bsp.ScanOn(cfg.Executor, xs[:min(n, cfg.size(1<<18, 1<<14))], p)
		params.P = p
		cost := stats.Cost(params)
		if p == 1 {
			cost1 = cost
		}
		t.AddRowf("bsp-sim", p, fmt.Sprintf("%.4g ops", cost), cost1/cost/2, cost1/cost/2/float64(p))
	}
	return t
}

// E2Sort regenerates Table 2: every sorter on every input distribution.
func E2Sort(cfg Config) *perf.Table {
	n := cfg.size(1<<20, 1<<14)
	p := runtime.GOMAXPROCS(0)
	r := cfg.runner()
	t := perf.NewTable(
		fmt.Sprintf("Table 2: sorting %d keys, P=%d", n, p),
		"algorithm", "distribution", "time", "Mkeys/s")
	for _, s := range psort.Sorters {
		for _, d := range []gen.Distribution{gen.Uniform, gen.Sorted, gen.Zipf, gen.FewUnique} {
			master := gen.Ints(n, d, cfg.WorkloadSeed())
			buf := make([]int64, n)
			m := r.Time(func(int) {
				copy(buf, master)
				s.Sort(buf, cfg.opts(p, par.Static, 0))
			}).Median
			t.AddRowf(s.Name, d.String(), perf.FormatDuration(m),
				perf.Throughput(n, m)/1e6)
		}
	}
	return t
}

// E3SortScaling regenerates Figure 1: speedup of the parallel sorters
// over worker counts, with Karp–Flatt serial-fraction diagnostics.
func E3SortScaling(cfg Config) *perf.Table {
	n := cfg.size(1<<20, 1<<14)
	master := gen.Ints(n, gen.Uniform, cfg.WorkloadSeed())
	buf := make([]int64, n)
	r := cfg.runner()
	t := perf.NewTable(
		fmt.Sprintf("Figure 1: sorting strong scaling, n=%d uniform keys", n),
		"algorithm", "P", "time", "speedup", "karp-flatt")
	for _, s := range psort.Sorters {
		if s.Name == "seq-quicksort" || s.Name == "seq-mergesort" || s.Name == "seq-radix" || s.Name == "stdlib" {
			continue
		}
		t1 := 0.0
		for _, p := range cfg.procs() {
			m := r.Time(func(int) {
				copy(buf, master)
				s.Sort(buf, cfg.opts(p, par.Static, 0))
			}).Median
			if p == 1 {
				t1 = m
			}
			t.AddRowf(s.Name, p, perf.FormatDuration(m), perf.Speedup(t1, m),
				perf.KarpFlatt(perf.Speedup(t1, m), p))
		}
	}
	return t
}

// E4ListRank regenerates Table 3: the work-inefficiency crossover of
// pointer jumping, with the PRAM model's predicted time alongside.
func E4ListRank(cfg Config) *perf.Table {
	r := cfg.runner()
	p := runtime.GOMAXPROCS(0)
	t := perf.NewTable(
		fmt.Sprintf("Table 3: list ranking, P=%d", p),
		"n", "seq-sweep", "pointer-jump", "ratio-seq/par", "model-work-ratio", "model-ratio-P64")
	sizes := []int{1 << 12, 1 << 14, 1 << 16, 1 << 18}
	if cfg.Quick {
		sizes = []int{1 << 10, 1 << 12}
	}
	for _, n := range sizes {
		l := gen.RandomList(n, cfg.WorkloadSeed())
		ts := r.Time(func(int) { seq.ListRank(l) }).Median
		tp := r.Time(func(int) { plist.Rank(l, cfg.opts(p, par.Static, 2048)) }).Median
		wd := machine.ListRankWD(n)
		seqWork := float64(n)
		t.AddRowf(n, perf.FormatDuration(ts), perf.FormatDuration(tp),
			ts/tp, wd.Work/seqWork, seqWork/wd.Brent(64))
	}
	return t
}

// E5CC regenerates Table 4: connected components across algorithm and
// graph class.
func E5CC(cfg Config) *perf.Table {
	scale := cfg.size(16, 10)
	gridSide := cfg.size(360, 48)
	graphs := []struct {
		name string
		g    *graph.Graph
	}{
		{"er-deg4", gen.ErdosRenyi(1<<scale, 4, false, cfg.WorkloadSeed())},
		{"er-deg16", gen.ErdosRenyi(1<<scale, 16, false, cfg.WorkloadSeed()+1)},
		{"rmat", gen.RMAT(scale, 8, false, cfg.WorkloadSeed()+2)},
		{"grid", gen.Grid2D(gridSide, gridSide, false, cfg.WorkloadSeed()+3)},
	}
	p := runtime.GOMAXPROCS(0)
	opts := cfg.opts(p, par.Static, 2048)
	r := cfg.runner()
	t := perf.NewTable(
		fmt.Sprintf("Table 4: connected components, P=%d", p),
		"graph", "n", "m", "algorithm", "time", "Medges/s", "components")
	for _, tc := range graphs {
		type alg struct {
			name string
			run  func() int
		}
		algs := []alg{
			{"par-labelprop", func() int { return pgraph.CountComponents(pgraph.CCLabelProp(tc.g, opts)) }},
			{"par-hook", func() int { return pgraph.CountComponents(pgraph.CCHook(tc.g, opts)) }},
			{"seq-bfs", func() int { return maxLabel(seq.ConnectedComponentsBFS(tc.g)) }},
			{"seq-unionfind", func() int { return maxLabel(seq.ConnectedComponentsUF(tc.g)) }},
		}
		for _, a := range algs {
			comps := 0
			m := r.Time(func(int) { comps = a.run() }).Median
			t.AddRowf(tc.name, tc.g.N(), tc.g.M(), a.name, perf.FormatDuration(m),
				perf.Throughput(tc.g.M(), m)/1e6, comps)
		}
	}
	return t
}

func maxLabel(labels []int) int {
	m := -1
	for _, l := range labels {
		if l > m {
			m = l
		}
	}
	return m + 1
}

// E6MST regenerates Table 5: minimum spanning forest algorithms.
func E6MST(cfg Config) *perf.Table {
	n := cfg.size(1<<15, 1<<10)
	r := cfg.runner()
	p := runtime.GOMAXPROCS(0)
	opts := cfg.opts(p, par.Static, 2048)
	t := perf.NewTable(
		fmt.Sprintf("Table 5: minimum spanning forest, P=%d", p),
		"graph", "n", "m", "algorithm", "time", "weight")
	graphs := []struct {
		name string
		g    *graph.Graph
	}{
		{"er-deg8", gen.ErdosRenyi(n, 8, true, cfg.WorkloadSeed())},
		{"er-deg32", gen.ErdosRenyi(n/2, 32, true, cfg.WorkloadSeed()+1)},
		{"grid", gen.Grid2D(isqrt(n), isqrt(n), true, cfg.WorkloadSeed()+2)},
	}
	for _, tc := range graphs {
		for _, a := range []struct {
			name string
			run  func() float64
		}{
			{"par-boruvka", func() float64 { return pgraph.MSTBoruvka(tc.g, opts) }},
			{"seq-kruskal", func() float64 { return seq.MSTKruskal(tc.g) }},
			{"seq-prim", func() float64 { return seq.MSTPrim(tc.g) }},
		} {
			w := 0.0
			m := r.Time(func(int) { w = a.run() }).Median
			t.AddRowf(tc.name, tc.g.N(), tc.g.M(), a.name, perf.FormatDuration(m), w)
		}
	}
	return t
}

func isqrt(n int) int {
	r := 1
	for r*r < n {
		r++
	}
	return r
}

// E7Matmul regenerates Figure 2: blocked matmul block-size ablation plus
// the naive kernel.
func E7Matmul(cfg Config) *perf.Table {
	n := cfg.size(384, 96)
	a := gen.RandomMatrix(n, n, cfg.WorkloadSeed())
	b := gen.RandomMatrix(n, n, cfg.WorkloadSeed()+1)
	p := runtime.GOMAXPROCS(0)
	r := cfg.runner()
	flops := 2 * float64(n) * float64(n) * float64(n)
	// Idealized L1 (32 KiB, 64 B lines) miss model: the design-time
	// prediction E7 validates. model-adv is predicted naive/blocked miss
	// ratio (> 1 means blocking should win at this cache size).
	l1 := machine.CacheModel{Words: 4096, Line: 8}
	t := perf.NewTable(
		fmt.Sprintf("Figure 2: matmul %dx%d, P=%d (model best block %d)", n, n, p, l1.BestBlock()),
		"kernel", "block", "time", "GFLOP/s", "model-adv-L1")
	m := r.Time(func(int) { seq.Matmul(a, b) }).Median
	t.AddRowf("seq-naive", "-", perf.FormatDuration(m), flops/m/1e9, 1.0)
	m = r.Time(func(int) { pmat.MulNaive(a, b, cfg.opts(p, par.Static, 0)) }).Median
	t.AddRowf("par-naive", "-", perf.FormatDuration(m), flops/m/1e9, 1.0)
	for _, bs := range []int{16, 32, 64, 128} {
		m := r.Time(func(int) { pmat.Mul(a, b, pmat.Config{Block: bs, Opts: cfg.opts(p, par.Static, 0)}) }).Median
		t.AddRowf("par-blocked", bs, perf.FormatDuration(m), flops/m/1e9,
			l1.BlockingSpeedupModel(n, bs))
	}
	return t
}

// E8Stencil regenerates Figure 3: Jacobi strong scaling over workers.
func E8Stencil(cfg Config) *perf.Table {
	n := cfg.size(1024, 128)
	iters := cfg.size(20, 5)
	g := gen.HotPlateGrid(n)
	r := cfg.runner()
	t := perf.NewTable(
		fmt.Sprintf("Figure 3: Jacobi %dx%d, %d sweeps", n, n, iters),
		"P", "time", "speedup", "Mcell-updates/s")
	cells := float64(n-2) * float64(n-2) * float64(iters)
	t1 := 0.0
	for _, p := range cfg.procs() {
		m := r.Time(func(int) { pstencil.Jacobi(g, iters, cfg.opts(p, par.Static, 8)) }).Median
		if p == 1 {
			t1 = m
		}
		t.AddRowf(p, perf.FormatDuration(m), perf.Speedup(t1, m), cells/m/1e6)
	}
	return t
}

// E14Overhead regenerates Table 8: single-worker parallel time over best
// sequential time for every kernel (the price of parallelization).
func E14Overhead(cfg Config) *perf.Table {
	r := cfg.runner()
	t := perf.NewTable(
		"Table 8: parallel overhead T1/Tseq",
		"kernel", "Tseq", "T1", "overhead")
	one := cfg.opts(1, par.Static, 0)

	n := cfg.size(1<<20, 1<<14)
	xs := gen.Ints(n, gen.Uniform, cfg.WorkloadSeed())
	dst := make([]int64, n)
	buf := make([]int64, n)

	addRow := func(name string, fseq, fpar func()) {
		ts := r.Time(func(int) { fseq() }).Median
		t1 := r.Time(func(int) { fpar() }).Median
		t.AddRowf(name, perf.FormatDuration(ts), perf.FormatDuration(t1), t1/ts)
	}
	addRow("scan",
		func() { seq.Scan(dst, xs) },
		func() { par.ScanInclusive(dst, xs, one, 0, func(a, b int64) int64 { return a + b }) })
	addRow("sort",
		func() { copy(buf, xs); seq.Quicksort(buf) },
		func() { copy(buf, xs); psort.SampleSort(buf, one) })
	l := gen.RandomList(cfg.size(1<<16, 1<<12), cfg.WorkloadSeed())
	addRow("listrank",
		func() { seq.ListRank(l) },
		func() { plist.Rank(l, one) })
	g := gen.ErdosRenyi(cfg.size(1<<14, 1<<10), 8, false, cfg.WorkloadSeed())
	addRow("connected-components",
		func() { seq.ConnectedComponentsUF(g) },
		func() { pgraph.CCHook(g, one) })
	wgr := gen.ErdosRenyi(cfg.size(1<<13, 1<<9), 8, true, cfg.WorkloadSeed())
	addRow("mst",
		func() { seq.MSTKruskal(wgr) },
		func() { pgraph.MSTBoruvka(wgr, one) })
	mm := cfg.size(256, 64)
	ma := gen.RandomMatrix(mm, mm, cfg.WorkloadSeed())
	mb := gen.RandomMatrix(mm, mm, cfg.WorkloadSeed()+1)
	addRow("matmul",
		func() { seq.Matmul(ma, mb) },
		func() { pmat.Mul(ma, mb, pmat.Config{Opts: one}) })
	grid := gen.HotPlateGrid(cfg.size(512, 64))
	addRow("jacobi",
		func() { seq.Jacobi(grid, 10) },
		func() { pstencil.Jacobi(grid, 10, one) })
	return t
}

// wrongResult marks a table cell whose algorithm disagreed with its
// baseline; TestAllExperimentsProduceTables fails on it.
const wrongResult = "WRONG RESULT"

// E16Selection regenerates Table 9: k-th smallest via parallel
// count/pack quickselect vs the sequential baseline vs the "sort then
// index" strawman.
func E16Selection(cfg Config) *perf.Table {
	n := cfg.size(1<<21, 1<<14)
	p := runtime.GOMAXPROCS(0)
	opts := cfg.opts(p, par.Static, 4096)
	// leafOpts pins one worker, so Select takes the serial leaf every
	// serve slot runs; its result is checked, not timed.
	leafOpts := cfg.opts(1, par.Static, 4096)
	r := cfg.runner()
	t := perf.NewTable(
		fmt.Sprintf("Table 9: median selection, n=%d, P=%d", n, p),
		"distribution", "algorithm", "time", "vs-seq")
	for _, d := range []gen.Distribution{gen.Uniform, gen.Zipf, gen.Sorted} {
		xs := gen.Ints(n, d, cfg.WorkloadSeed())
		k := (n - 1) / 2
		var want int64
		tseq := r.Time(func(int) { want = psel.SelectSeq(xs, k) }).Median
		t.AddRowf(d.String(), "seq-quickselect", perf.FormatDuration(tseq), 1.0)
		var got int64
		tpar := r.Time(func(int) { got = psel.Select(xs, k, opts) }).Median
		if got != want || psel.Select(xs, k, leafOpts) != want {
			t.AddRowf(d.String(), "par-select", wrongResult, 0.0)
			continue
		}
		t.AddRowf(d.String(), "par-select", perf.FormatDuration(tpar), tpar/tseq)
		buf := make([]int64, n)
		tsort := r.Time(func(int) {
			copy(buf, xs)
			seq.Quicksort(buf)
			got = buf[k]
		}).Median
		t.AddRowf(d.String(), "sort-then-index", perf.FormatDuration(tsort), tsort/tseq)
	}
	return t
}

// E17GraphIterative regenerates Table 10: PageRank convergence and
// triangle counting across graph classes.
func E17GraphIterative(cfg Config) *perf.Table {
	scale := cfg.size(14, 9)
	p := runtime.GOMAXPROCS(0)
	opts := cfg.opts(p, par.Static, 1024)
	r := cfg.runner()
	graphs := []struct {
		name string
		g    *graph.Graph
	}{
		{"er-deg8", gen.ErdosRenyi(1<<scale, 8, false, cfg.WorkloadSeed())},
		{"rmat", gen.RMAT(scale, 8, false, cfg.WorkloadSeed()+1)},
		{"grid", gen.Grid2D(1<<(scale/2), 1<<(scale/2), false, cfg.WorkloadSeed()+2)},
	}
	t := perf.NewTable(
		fmt.Sprintf("Table 10: iterative graph kernels, P=%d", p),
		"graph", "n", "m", "pagerank-time", "pr-iters", "triangles", "tri-time")
	for _, tc := range graphs {
		var pr pgraph.PageRankResult
		prT := r.Time(func(int) { pr = pgraph.PageRank(tc.g, 0.85, 1e-8, 200, opts) }).Median
		var tris int64
		triT := r.Time(func(int) { tris = pgraph.TriangleCount(tc.g, opts) }).Median
		t.AddRowf(tc.name, tc.g.N(), tc.g.M(), perf.FormatDuration(prT), pr.Iters,
			int(tris), perf.FormatDuration(triT))
	}
	return t
}

// E19Relaxation regenerates Figure 9: sweeps-to-convergence and time for
// Jacobi vs red-black Gauss–Seidel at several grid sizes. The expected
// shape is ~2x fewer sweeps for red-black at equal per-sweep cost.
func E19Relaxation(cfg Config) *perf.Table {
	p := runtime.GOMAXPROCS(0)
	opts := cfg.opts(p, par.Static, 8)
	r := cfg.runner()
	t := perf.NewTable(
		fmt.Sprintf("Figure 9: relaxation to |delta|<1e-4, P=%d", p),
		"grid", "method", "sweeps", "time", "sweep-ratio")
	sizes := []int{33, 65, 129}
	if cfg.Quick {
		sizes = []int{17, 33}
	}
	for _, n := range sizes {
		g := gen.HotPlateGrid(n)
		var jIters, gsIters int
		jT := r.Time(func(int) { _, jIters = pstencil.JacobiToConvergence(g, 1e-4, 1000000, opts) }).Median
		gsT := r.Time(func(int) { _, gsIters = pstencil.GaussSeidelRBToConvergence(g, 1e-4, 1000000, opts) }).Median
		t.AddRowf(fmt.Sprintf("%dx%d", n, n), "jacobi", jIters, perf.FormatDuration(jT), 1.0)
		t.AddRowf(fmt.Sprintf("%dx%d", n, n), "redblack-gs", gsIters, perf.FormatDuration(gsT),
			float64(gsIters)/float64(jIters))
	}
	return t
}

// E21BFSDirection regenerates Figure 10: plain top-down BFS vs the
// direction-optimizing hybrid across graph classes. The hybrid's win is
// confined to low-diameter graphs whose frontier engulfs the graph; on
// meshes the frontier never crosses the threshold and the two coincide.
func E21BFSDirection(cfg Config) *perf.Table {
	scale := cfg.size(15, 10)
	p := runtime.GOMAXPROCS(0)
	opts := cfg.opts(p, par.Static, 1024)
	r := cfg.runner()
	graphs := []struct {
		name string
		g    *graph.Graph
	}{
		{"er-deg16", gen.ErdosRenyi(1<<scale, 16, false, cfg.WorkloadSeed())},
		{"rmat", gen.RMAT(scale, 8, false, cfg.WorkloadSeed()+1)},
		{"grid", gen.Grid2D(1<<(scale/2), 1<<(scale/2), false, cfg.WorkloadSeed()+2)},
	}
	t := perf.NewTable(
		fmt.Sprintf("Figure 10: BFS direction ablation, P=%d", p),
		"graph", "n", "m", "algorithm", "time", "Medges/s")
	for _, tc := range graphs {
		for _, a := range []struct {
			name string
			run  func() []int32
		}{
			{"top-down", func() []int32 { return pgraph.BFS(tc.g, 0, opts) }},
			{"hybrid-a14", func() []int32 { return pgraph.BFSHybrid(tc.g, 0, 14, opts) }},
			{"bottom-up", func() []int32 { return pgraph.BFSHybrid(tc.g, 0, 1<<30, opts) }},
		} {
			m := r.Time(func(int) { a.run() }).Median
			t.AddRowf(tc.name, tc.g.N(), tc.g.M(), a.name, perf.FormatDuration(m),
				perf.Throughput(tc.g.M(), m)/1e6)
		}
	}
	return t
}
