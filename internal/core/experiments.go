package core

import (
	"repro/internal/exec"
	"repro/internal/par"
	"repro/internal/perf"
	"repro/internal/scratch"
	"repro/internal/serve"
)

// Config scales the experiment suite. The zero value runs the full-size
// experiments with default sweeps.
type Config struct {
	// Quick shrinks problem sizes for smoke tests and CI.
	Quick bool
	// Procs are the real worker counts to sweep (default 1,2,4,8
	// capped at GOMAXPROCS*4 to stay meaningful).
	Procs []int
	// VProcs are virtual BSP processor counts (default 1,2,4,...,64).
	VProcs []int
	// Reps is the number of measured repetitions (default 3).
	Reps int
	// Seed makes all workloads reproducible (default 42).
	Seed uint64
	// Executor pins every kernel invocation in the suite to one worker
	// pool: nil means the shared process-wide pool, and a dedicated
	// pool (cmd/parbench -executor=dedicated) isolates the run.
	Executor *exec.Executor
	// Scratch pins the scratch-buffer pool the same way: nil means the
	// shared process-wide pool, scratch.Off reinstates fresh allocation
	// per call (cmd/parbench -scratch=off) so the GC-pressure delta is
	// observable.
	Scratch *scratch.Pool
}

// opts builds the par.Options for one measured point, carrying the
// harness executor and scratch pool into every kernel layer.
func (c Config) opts(procs int, pol par.Policy, grain int) par.Options {
	return par.Options{Procs: procs, Policy: pol, Grain: grain, Executor: c.Executor, Scratch: c.Scratch}
}

// ServeConfig is opts' serving-side sibling: the per-shard serve.Config
// for batches of the given parallelism on the harness scratch pool.
// Every shard brings its own executor, so the harness executor does
// not carry over. Callers set the per-table fields (SLO, Cache,
// PipelineCutoff, …) on the result.
func (c Config) ServeConfig(workers int) serve.Config {
	return serve.Config{Scratch: c.Scratch, Workers: workers}
}

func (c Config) procs() []int {
	if len(c.Procs) > 0 {
		return c.Procs
	}
	return []int{1, 2, 4, 8}
}

func (c Config) vprocs() []int {
	if len(c.VProcs) > 0 {
		return c.VProcs
	}
	return []int{1, 2, 4, 8, 16, 32, 64}
}

func (c Config) reps() int {
	if c.Reps > 0 {
		return c.Reps
	}
	return 3
}

// WorkloadSeed returns Seed, or its default 42 when unset.
func (c Config) WorkloadSeed() uint64 {
	if c.Seed != 0 {
		return c.Seed
	}
	return 42
}

// size picks full (or quick) problem sizes.
func (c Config) size(full, quick int) int {
	if c.Quick {
		return quick
	}
	return full
}

func (c Config) runner() perf.Runner { return perf.Runner{Warmup: 1, Reps: c.reps()} }

// Experiment is one reproducible table/figure of the evaluation.
type Experiment struct {
	ID    string // "E<n>"; `parbench -list` prints the index
	Ref   string // the table/figure it regenerates
	Title string
	Run   func(cfg Config) *perf.Table
}

// Experiments lists the full suite in evaluation order: E1–E14 are the
// reconstructed evaluation, E15 onward the extensions. E22 (streaming
// pipeline vs one-shot composition) was retired with internal/pipeline
// and its id is never reused. The Run functions live in the topic
// files kernels.go, scheduling.go, models.go and serving.go; a new
// experiment is one row here.
var Experiments = []Experiment{
	{"E1", "Table 1", "Parallel scan: measured scaling and BSP-simulated scaling", E1Scan},
	{"E2", "Table 2", "Sorting case study across algorithms and input distributions", E2Sort},
	{"E3", "Figure 1", "Sorting strong-scaling curves", E3SortScaling},
	{"E4", "Table 3", "List ranking: pointer jumping vs sequential sweep", E4ListRank},
	{"E5", "Table 4", "Connected components across algorithms and graph classes", E5CC},
	{"E6", "Table 5", "Minimum spanning tree: Boruvka vs Kruskal vs Prim", E6MST},
	{"E7", "Figure 2", "Blocked matmul: block-size ablation", E7Matmul},
	{"E8", "Figure 3", "Jacobi stencil strong scaling", E8Stencil},
	{"E9", "Table 6", "BSP model validation: predicted vs measured", E9BSPPredict},
	{"E10", "Figure 4", "Loop-schedule ablation on uniform and skewed work", E10Schedule},
	{"E11", "Figure 5", "Grain-size autotuning curve", E11Grain},
	{"E12", "Table 7", "Work stealing vs static loops on irregular trees", E12Steal},
	{"E13", "Figure 6", "BSP cost model: broadcast algorithm crossover", E13Models},
	{"E14", "Table 8", "Parallel overhead: T1 vs best sequential", E14Overhead},
	{"E15", "Figure 7", "Weak scaling on the simulated machine (scan, matmul)", E15WeakScaling},
	{"E16", "Table 9", "Selection: parallel quickselect vs sequential vs full sort", E16Selection},
	{"E17", "Table 10", "Iterative graph kernels: PageRank and triangle counting", E17GraphIterative},
	{"E18", "Figure 8", "Message aggregation: LogGP bulk advantage and BSP per-word fidelity", E18Aggregation},
	{"E19", "Figure 9", "Stencil relaxation ablation: Jacobi vs red-black Gauss-Seidel", E19Relaxation},
	{"E20", "Table 11", "Task-parallel quicksort (work stealing) vs loop-parallel sorters", E20StealSort},
	{"E21", "Figure 10", "BFS direction ablation: top-down vs direction-optimizing", E21BFSDirection},
	{"E23", "Table 13", "Request serving: batched admission vs per-request dispatch", E23Serve},
	{"E24", "Table 14", "Sharded serving under tenant skew: 1 shard vs N shards vs N shards + migration", E24ShardedServe},
	{"E25", "Table 15", "Registry kernel ladder: one-shot vs serve batch path vs long route, per registered kernel", E25KernelRegistry},
	{"E26", "Table 16", "Coordinated omission: closed-loop vs open-loop serving at matched offered load", E26OpenLoop},
	{"E27", "Table 17", "Result cache: cold vs warm-hit vs delta-update serving latency", E27ResultCache},
	{"E28", "Table 18", "Wire front door: in-process vs framed-socket vs chunk-streamed serving latency", E28WireDoor},
	{"E29", "Table 19", "The long route on 1-worker shards: mixed traffic by PipelineCutoff", E29LongRoute},
}

// ByID returns the experiment with the given id.
func ByID(id string) (Experiment, bool) {
	for _, e := range Experiments {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}
