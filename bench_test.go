// Benchmarks regenerating the evaluation suite, one benchmark family per
// table/figure (E1–E14; see DESIGN.md for the experiment index). Each
// benchmark times the experiment's hot kernel under testing.B and reports
// the derived metric the table/figure plots (speedup, throughput, model
// cost) via b.ReportMetric. The full formatted tables are produced by
// cmd/parbench; these benches are the `go test -bench` face of the same
// suite.
package repro

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/bsp"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/machine"
	"repro/internal/par"
	"repro/internal/pgraph"
	"repro/internal/plist"
	"repro/internal/pmat"
	"repro/internal/psort"
	"repro/internal/pstencil"
	"repro/internal/sched"
	"repro/internal/seq"
)

var benchProcs = []int{1, 2, 4, 8}

// BenchmarkE1Scan — Table 1: scan scaling, real and BSP-simulated.
func BenchmarkE1Scan(b *testing.B) {
	const n = 1 << 20
	xs := gen.Ints(n, gen.Uniform, 42)
	dst := make([]int64, n)
	b.Run("seq", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			seq.Scan(dst, xs)
		}
		reportThroughput(b, n)
	})
	for _, p := range benchProcs {
		b.Run(fmt.Sprintf("par/p=%d", p), func(b *testing.B) {
			opts := par.Options{Procs: p, Grain: 4096}
			for i := 0; i < b.N; i++ {
				par.ScanInclusive(dst, xs, opts, 0, func(a, b int64) int64 { return a + b })
			}
			reportThroughput(b, n)
		})
	}
	for _, p := range []int{4, 16, 64} {
		b.Run(fmt.Sprintf("bsp-sim/p=%d", p), func(b *testing.B) {
			var stats *bsp.Stats
			for i := 0; i < b.N; i++ {
				_, stats = bsp.Scan(xs[:1<<16], p)
			}
			params := machine.BSPParams{P: p, G: 2, L: 2000}
			b.ReportMetric(stats.Cost(params), "model-ops")
		})
	}
}

// BenchmarkE2Sort — Table 2: sorters across distributions.
func BenchmarkE2Sort(b *testing.B) {
	const n = 1 << 18
	for _, s := range psort.Sorters {
		for _, d := range []gen.Distribution{gen.Uniform, gen.Zipf} {
			master := gen.Ints(n, d, 42)
			buf := make([]int64, n)
			b.Run(fmt.Sprintf("%s/%s", s.Name, d), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					copy(buf, master)
					s.Sort(buf, par.Options{})
				}
				reportThroughput(b, n)
			})
		}
	}
}

// BenchmarkE3SortScaling — Figure 1: parallel sorters over P.
func BenchmarkE3SortScaling(b *testing.B) {
	const n = 1 << 18
	master := gen.Ints(n, gen.Uniform, 42)
	buf := make([]int64, n)
	for _, name := range []string{"samplesort", "mergesort", "radix"} {
		var sorter psort.Sorter
		for _, s := range psort.Sorters {
			if s.Name == name {
				sorter = s
			}
		}
		for _, p := range benchProcs {
			b.Run(fmt.Sprintf("%s/p=%d", name, p), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					copy(buf, master)
					sorter.Sort(buf, par.Options{Procs: p})
				}
				reportThroughput(b, n)
			})
		}
	}
}

// BenchmarkE4ListRank — Table 3: pointer jumping vs sequential sweep.
func BenchmarkE4ListRank(b *testing.B) {
	for _, n := range []int{1 << 14, 1 << 17} {
		l := gen.RandomList(n, 42)
		b.Run(fmt.Sprintf("seq/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				seq.ListRank(l)
			}
			reportThroughput(b, n)
		})
		b.Run(fmt.Sprintf("jump/n=%d", n), func(b *testing.B) {
			opts := par.Options{Grain: 2048}
			for i := 0; i < b.N; i++ {
				plist.Rank(l, opts)
			}
			reportThroughput(b, n)
			b.ReportMetric(machine.ListRankWD(n).Work/float64(n), "work-inflation")
		})
	}
}

// BenchmarkE5CC — Table 4: connected components.
func BenchmarkE5CC(b *testing.B) {
	graphs := map[string]*struct {
		g *Graph
	}{
		"er":   {gen.ErdosRenyi(1<<14, 8, false, 42)},
		"rmat": {gen.RMAT(14, 8, false, 43)},
		"grid": {gen.Grid2D(128, 128, false, 44)},
	}
	opts := par.Options{Grain: 2048}
	for name, tc := range graphs {
		b.Run("labelprop/"+name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				pgraph.CCLabelProp(tc.g, opts)
			}
			reportThroughput(b, tc.g.M())
		})
		b.Run("hook/"+name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				pgraph.CCHook(tc.g, opts)
			}
			reportThroughput(b, tc.g.M())
		})
		b.Run("seq-uf/"+name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				seq.ConnectedComponentsUF(tc.g)
			}
			reportThroughput(b, tc.g.M())
		})
	}
}

// BenchmarkE6MST — Table 5: minimum spanning forest.
func BenchmarkE6MST(b *testing.B) {
	g := gen.ErdosRenyi(1<<13, 8, true, 42)
	opts := par.Options{Grain: 2048}
	b.Run("boruvka", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			pgraph.MSTBoruvka(g, opts)
		}
		reportThroughput(b, g.M())
	})
	b.Run("kruskal", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			seq.MSTKruskal(g)
		}
		reportThroughput(b, g.M())
	})
	b.Run("prim", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			seq.MSTPrim(g)
		}
		reportThroughput(b, g.M())
	})
}

// BenchmarkE7Matmul — Figure 2: block-size ablation.
func BenchmarkE7Matmul(b *testing.B) {
	const n = 256
	a := gen.RandomMatrix(n, n, 1)
	m := gen.RandomMatrix(n, n, 2)
	flops := 2 * float64(n) * float64(n) * float64(n)
	b.Run("seq", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			seq.Matmul(a, m)
		}
		b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
	})
	for _, bs := range []int{16, 64, 128} {
		b.Run(fmt.Sprintf("blocked/b=%d", bs), func(b *testing.B) {
			cfg := pmat.Config{Block: bs}
			for i := 0; i < b.N; i++ {
				pmat.Mul(a, m, cfg)
			}
			b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
		})
	}
}

// BenchmarkE8Stencil — Figure 3: Jacobi strong scaling.
func BenchmarkE8Stencil(b *testing.B) {
	const n, iters = 512, 5
	g := gen.HotPlateGrid(n)
	for _, p := range benchProcs {
		b.Run(fmt.Sprintf("p=%d", p), func(b *testing.B) {
			opts := par.Options{Procs: p, Grain: 8}
			for i := 0; i < b.N; i++ {
				pstencil.Jacobi(g, iters, opts)
			}
			b.ReportMetric(float64(n-2)*float64(n-2)*iters*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mupdates/s")
		})
	}
}

// BenchmarkE9BSPPredict — Table 6: cost of running kernels on the
// simulated machine (prediction accuracy is reported by cmd/parbench).
func BenchmarkE9BSPPredict(b *testing.B) {
	xs := gen.Ints(1<<16, gen.Uniform, 42)
	for _, p := range []int{4, 16} {
		b.Run(fmt.Sprintf("scan/p=%d", p), func(b *testing.B) {
			var stats *bsp.Stats
			for i := 0; i < b.N; i++ {
				_, stats = bsp.Scan(xs, p)
			}
			b.ReportMetric(stats.TotalW(), "model-W")
			b.ReportMetric(stats.TotalH(), "model-H")
		})
		b.Run(fmt.Sprintf("samplesort/p=%d", p), func(b *testing.B) {
			var stats *bsp.Stats
			for i := 0; i < b.N; i++ {
				_, stats = bsp.SampleSort(xs[:1<<14], p)
			}
			b.ReportMetric(stats.TotalW(), "model-W")
			b.ReportMetric(stats.TotalH(), "model-H")
		})
	}
}

// BenchmarkE10Schedule — Figure 4: loop schedules on skewed work.
func BenchmarkE10Schedule(b *testing.B) {
	const n = 1 << 12
	work := gen.SkewedWork(n, 1<<22, 0.001, 42)
	for _, pol := range par.Policies {
		b.Run(pol.String(), func(b *testing.B) {
			opts := par.Options{Policy: pol, Grain: 16}
			for i := 0; i < b.N; i++ {
				par.For(n, opts, func(j int) { spinBench(work[j]) })
			}
		})
	}
}

// BenchmarkE11Grain — Figure 5: grain-size curve for a cheap-body sum.
func BenchmarkE11Grain(b *testing.B) {
	xs := gen.Ints(1<<20, gen.Uniform, 42)
	for _, grain := range []int{1 << 6, 1 << 10, 1 << 14, 1 << 18} {
		b.Run(fmt.Sprintf("grain=%d", grain), func(b *testing.B) {
			opts := par.Options{Policy: par.Dynamic, Grain: grain}
			for i := 0; i < b.N; i++ {
				par.Sum(xs, opts)
			}
			reportThroughput(b, len(xs))
		})
	}
}

// BenchmarkE12Steal — Table 7: work stealing vs loop schedules on an
// irregular task tree.
func BenchmarkE12Steal(b *testing.B) {
	const depth = 16
	p := runtime.GOMAXPROCS(0)
	b.Run("work-stealing", func(b *testing.B) {
		pool := sched.NewPoolOn(nil, p)
		var root func(d int) sched.Task
		root = func(d int) sched.Task {
			return func(w *sched.Worker) {
				if d <= 0 {
					spinBench(20000)
					return
				}
				w.Spawn(root(d - 1))
				if d%3 == 0 {
					w.Spawn(root(d - 2))
				}
			}
		}
		for i := 0; i < b.N; i++ {
			pool.Run(root(depth))
		}
		b.ReportMetric(float64(pool.Steals()), "steals")
	})
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
		b.Run("loop-"+pol.String(), func(b *testing.B) {
			opts := par.Options{Procs: p, Policy: pol, Grain: 64}
			for i := 0; i < b.N; i++ {
				par.For(len(tasks), opts, func(j int) { spinBench(tasks[j]) })
			}
		})
	}
}

// BenchmarkE13Models — Figure 6: model evaluation cost (the crossover
// table itself is deterministic; this times trace generation).
func BenchmarkE13Models(b *testing.B) {
	for _, p := range []int{8, 64} {
		b.Run(fmt.Sprintf("direct/p=%d", p), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				bsp.BroadcastDirect(1, p)
			}
		})
		b.Run(fmt.Sprintf("tree/p=%d", p), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				bsp.BroadcastTree(1, p)
			}
		})
	}
}

// BenchmarkE14Overhead — Table 8: T1 vs Tseq per kernel.
func BenchmarkE14Overhead(b *testing.B) {
	one := par.Options{Procs: 1}
	xs := gen.Ints(1<<18, gen.Uniform, 42)
	dst := make([]int64, len(xs))
	b.Run("scan-seq", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			seq.Scan(dst, xs)
		}
	})
	b.Run("scan-T1", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			par.ScanInclusive(dst, xs, one, 0, func(a, b int64) int64 { return a + b })
		}
	})
	buf := make([]int64, len(xs))
	b.Run("sort-seq", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			copy(buf, xs)
			seq.Quicksort(buf)
		}
	})
	b.Run("sort-T1", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			copy(buf, xs)
			psort.SampleSort(buf, one)
		}
	})
	g := gen.ErdosRenyi(1<<13, 8, false, 42)
	b.Run("cc-seq", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			seq.ConnectedComponentsUF(g)
		}
	})
	b.Run("cc-T1", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			pgraph.CCHook(g, one)
		}
	})
}

// BenchmarkExperimentSuiteQuick runs each full experiment end to end at
// quick size (tables included), demonstrating the harness cost itself.
func BenchmarkExperimentSuiteQuick(b *testing.B) {
	cfg := core.Config{Quick: true, Reps: 1, Procs: []int{1, 2}, VProcs: []int{1, 4}}
	for _, e := range core.Experiments {
		e := e
		b.Run(e.ID, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = e.Run(cfg)
			}
		})
	}
}

func reportThroughput(b *testing.B, items int) {
	b.ReportMetric(float64(items)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mitems/s")
}

// spinBench burns approximately units of arithmetic work (mirrors the
// harness's calibrated spin loop).
func spinBench(units int) {
	acc := uint64(1)
	for i := 0; i < units; i++ {
		acc = acc*6364136223846793005 + 1442695040888963407
	}
	if acc == 0 {
		panic("unreachable")
	}
}
