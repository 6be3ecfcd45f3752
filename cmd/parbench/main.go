// Command parbench regenerates the evaluation's tables and figures
// (parbench -list prints the experiment index; DESIGN.md describes
// each) and drives one registered kernel through every ladder.
//
// Usage:
//
//	parbench -exp all            # run the whole suite
//	parbench -exp E5,E6          # selected experiments
//	parbench -exp E2 -quick      # smoke-size problems
//	parbench -exp E1 -csv out/   # also write CSV per experiment
//	parbench -list               # show the experiment index
//	parbench -kernels            # show the kernel registry index
//	parbench -kernel gups        # one kernel through every ladder
//
// Flags -procs, -vprocs, -reps and -seed control the sweep; -executor
// selects the dispatch runtime (the shared persistent pool or a
// dedicated one) and -scratch toggles the scratch-arena buffer reuse,
// so the runtime-overhead and GC-pressure deltas are observable from
// the CLI. Grain, policy and cutoffs are the static defaults or the
// hand-swept values of each table (E10 and E11 sweep them). Serving
// traffic is measured by the tables: E23 (batching), E24 (shards and
// migration), E26 (open-loop arrivals and deadlines), E27 (result
// cache and deltas), E28 (the wire front door) and E29 (the long
// route); bench/ drives a real parserve over a socket. A summary line
// after the experiments reports the executor's steal counters next to
// the scratch pool's hit/miss/bytes gauges. Unknown flag values are
// rejected with a usage error, never silently defaulted.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/perf"
	"repro/internal/scratch"
)

func main() {
	var (
		expFlag   = flag.String("exp", "all", "comma-separated experiment ids (see -list) or 'all'")
		quick     = flag.Bool("quick", false, "use smoke-test problem sizes")
		procsFlag = flag.String("procs", "", "comma-separated worker counts (default 1,2,4,8)")
		vprocs    = flag.String("vprocs", "", "comma-separated virtual BSP processor counts")
		reps      = flag.Int("reps", 0, "measured repetitions per point (default 3)")
		seed      = flag.Uint64("seed", 0, "workload seed (default 42)")
		csvDir    = flag.String("csv", "", "directory to also write one CSV per experiment")
		list      = flag.Bool("list", false, "list the experiment index and exit")
		executor  = flag.String("executor", "pooled",
			"dispatch runtime: 'pooled' (shared persistent pool) or 'dedicated' (fresh pool)")
		scratchMode = flag.String("scratch", "on",
			"scratch-arena buffer reuse: 'on' (pooled temporaries) or 'off' (fresh allocation per call)")
		kernelsFlag = flag.Bool("kernels", false, "list the kernel registry (name, variants, stream/relation wiring) and exit")
		kernelFlag  = flag.String("kernel", "",
			"run one registered kernel through every ladder — dispatched one-shot vs serial oracle, each variant, and the serve batch path — and print verified timings instead of experiments")
	)
	flag.Parse()

	if *list {
		fmt.Println("id    ref       title")
		for _, e := range core.Experiments {
			fmt.Printf("%-5s %-9s %s\n", e.ID, e.Ref, e.Title)
		}
		return
	}

	if *kernelsFlag {
		printKernels(os.Stdout)
		return
	}

	cfg := core.Config{Quick: *quick, Reps: *reps, Seed: *seed}
	var err error
	if cfg.Executor, err = executorFor(*executor); err != nil {
		fatalf("%v", err)
	}
	if scratchOn, err := onOff("scratch", *scratchMode, true); err != nil {
		fatalf("%v", err)
	} else if !scratchOn {
		cfg.Scratch = scratch.Off // nil = the shared process-wide scratch pool
	}
	if cfg.Procs, err = parseInts(*procsFlag); err != nil {
		fatalf("bad -procs: %v", err)
	}
	if cfg.VProcs, err = parseInts(*vprocs); err != nil {
		fatalf("bad -vprocs: %v", err)
	}

	if *kernelFlag != "" {
		if err := runKernelDemo(cfg, *kernelFlag, os.Stdout); err != nil {
			fatalf("kernel: %v", err)
		}
		printRuntimeStats(cfg)
		return
	}

	ids := selectIDs(*expFlag)
	if len(ids) == 0 {
		fatalf("no experiments selected; try -list")
	}
	for _, id := range ids {
		e, ok := core.ByID(id)
		if !ok {
			fatalf("unknown experiment %q; try -list", id)
		}
		start := time.Now()
		t := e.Run(cfg)
		fmt.Printf("== %s (%s) — %s [%s]\n", e.ID, e.Ref, e.Title, time.Since(start).Round(time.Millisecond))
		if err := t.Render(os.Stdout); err != nil {
			fatalf("render: %v", err)
		}
		fmt.Println()
		if *csvDir != "" {
			if err := writeCSV(*csvDir, e.ID, t); err != nil {
				fatalf("csv: %v", err)
			}
		}
	}
	printRuntimeStats(cfg)
}

// executorFor resolves the -executor flag mode; unknown values are an
// error, never a silent default.
func executorFor(mode string) (*exec.Executor, error) {
	switch mode {
	case "pooled", "":
		return nil, nil // nil = the shared process-wide pool
	case "dedicated":
		return exec.New(0), nil
	}
	return nil, fmt.Errorf("bad -executor %q: want pooled or dedicated", mode)
}

// onOff resolves an on/off mode flag (-scratch); an empty mode means
// def. Unknown values are an error, never a silent default.
func onOff(flagName, mode string, def bool) (bool, error) {
	switch mode {
	case "on":
		return true, nil
	case "off":
		return false, nil
	case "":
		return def, nil
	}
	return false, fmt.Errorf("bad -%s %q: want on or off", flagName, mode)
}

// printRuntimeStats reports the executor's steal counters alongside
// the scratch pool's reuse gauges, so one run shows both halves of the
// runtime's behavior: how work moved between workers and how buffer
// memory was recycled.
func printRuntimeStats(cfg core.Config) {
	e := cfg.Executor
	if e == nil {
		e = exec.Default()
	}
	sp := cfg.Scratch
	if sp == nil {
		sp = scratch.Default()
	}
	st := sp.Stats()
	fmt.Printf("runtime: steals=%d attempts=%d | scratch: hits=%d misses=%d bypasses=%d live=%s pooled=%s\n",
		e.Steals(), e.StealAttempts(),
		st.Hits, st.Misses, st.Bypasses, fmtBytes(st.BytesLive), fmtBytes(st.BytesPooled))
}

func fmtBytes(b int64) string {
	switch {
	case b >= 1<<20:
		return fmt.Sprintf("%.1fMiB", float64(b)/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.1fKiB", float64(b)/(1<<10))
	default:
		return fmt.Sprintf("%dB", b)
	}
}

func selectIDs(flagVal string) []string {
	if flagVal == "all" {
		ids := make([]string, len(core.Experiments))
		for i, e := range core.Experiments {
			ids[i] = e.ID
		}
		return ids
	}
	var ids []string
	for _, s := range strings.Split(flagVal, ",") {
		if s = strings.TrimSpace(s); s != "" {
			ids = append(ids, s)
		}
	}
	return ids
}

func parseInts(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, err
		}
		if v < 1 {
			return nil, fmt.Errorf("count %d < 1", v)
		}
		out = append(out, v)
	}
	return out, nil
}

func writeCSV(dir, id string, t *perf.Table) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, id+".csv"))
	if err != nil {
		return err
	}
	defer f.Close()
	return t.RenderCSV(f)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "parbench: "+format+"\n", args...)
	os.Exit(1)
}
