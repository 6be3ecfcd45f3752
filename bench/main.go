// Command bench is the repository's benchmark: four serving workloads
// driven closed-loop through cmd/parserve (or, for embed_skew, through
// serve.Sharded in-process), reported as the end-to-end metrics of
// BENCHMARK.json, and a traced run of the same workloads that splits
// every request into wire, serve, kernel and pipeline time. It measures
// every layer from outside, through public functions and Stats().
//
//	bash bench/run.sh --workload wire_bulk --seed 1 --seconds 20 --trace 0
//	bash bench/run.sh -seed 1                  # every workload, both runs
//	bash bench/run.sh -repeat 10 -check        # judge run-to-run spread against the bounds
//
// See README.md beside this file.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/kernel"
)

type options struct {
	seed     uint64
	window   time.Duration
	parserve string // path of the built parserve binary
	outDir   string // where trace files go
}

// result is one run of one workload.
type result struct {
	m         metrics
	attempted int
	failed    int
	err       error  // first failed request or violated invariant
	note      string // latency over the whole window, for the reader
}

// closed folds the outcome of closing the run's target into r: a
// server that did not drain clean, or whose counters do not balance,
// is one more failure.
func (r *result) closed(err error) {
	if err == nil {
		return
	}
	r.failed++
	if r.err == nil {
		r.err = err
	}
}

func main() {
	var (
		workloadName = flag.String("workload", "", "run this workload once and end with the result as one JSON line (default: every workload, untraced then traced)")
		seed         = flag.Uint64("seed", 1, "workload seed: input generation, tenant and Zipf draws, the no-repeat enumeration")
		seconds      = flag.Float64("seconds", 0, "measured seconds per run (default: run_seconds of BENCHMARK.json)")
		trace        = flag.Int("trace", 0, "with -workload: 0 measures the end-to-end metrics, 1 the per-layer metrics")
		repeat       = flag.Int("repeat", 1, "without -workload: run the whole set this many times, seed+i on the i-th")
		check        = flag.Bool("check", false, "with -repeat: exit nonzero if an end-to-end metric's spread exceeds its bound")
		parserve     = flag.String("parserve", ".bench_build/parserve", "built parserve binary")
		specPath     = flag.String("spec", "BENCHMARK.json", "the benchmark's declaration")
		outDir       = flag.String("out", "bench/out", "directory for trace files")
		buildS       = flag.Float64("build-s", 0, "seconds run.sh spent building, reported in the machine line")
	)
	flag.Parse()
	sp, err := loadSpec(*specPath)
	if err != nil {
		fatalf("%v", err)
	}
	if *seconds <= 0 {
		*seconds = float64(sp.RunSeconds)
	}
	o := options{seed: *seed, window: time.Duration(*seconds * float64(time.Second)), parserve: *parserve, outDir: *outDir}
	fmt.Printf("machine: nproc=%d GOMAXPROCS=%d %s %s/%s commit=%s seed=%d seconds=%g build_s=%g\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH, commit(), *seed, *seconds, *buildS)

	// measure runs one workload once and prints its metrics; a run that
	// could not measure at all ends the program.
	measure := func(w *workload, o options, traced bool) result {
		r := runOne(w, o, traced, sp.defs(traced))
		if r.m == nil {
			fatalf("%s: %v", w.name, r.err)
		}
		printMetrics(w.name, r, sp.defs(traced))
		return r
	}

	if *workloadName != "" {
		w := findWorkload(*workloadName)
		if w == nil || !sp.lists(w.name) {
			fatalf("unknown workload %q", *workloadName)
		}
		r := measure(w, o, *trace != 0)
		printJSON(r, sp.defs(*trace != 0))
		if r.err != nil {
			os.Exit(1)
		}
		return
	}

	ok := true
	// values[workload][metric] collects one value per repeat.
	values := map[string]map[string][]float64{}
	for rep := range *repeat {
		ro := o
		ro.seed += uint64(rep)
		for i := range workloads {
			w := &workloads[i]
			if !sp.lists(w.name) {
				fatalf("workload %s is not in %s", w.name, *specPath)
			}
			for _, traced := range []bool{false, true} {
				r := measure(w, ro, traced)
				ok = ok && r.err == nil
				if values[w.name] == nil {
					values[w.name] = map[string][]float64{}
				}
				for name, v := range r.m {
					values[w.name][name] = append(values[w.name][name], v)
				}
			}
		}
	}
	if *repeat > 1 {
		ok = summarize(sp, values, *check) && ok
	}
	if !ok {
		os.Exit(1)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(1)
}

func (sp *spec) lists(workload string) bool {
	for _, w := range sp.Workloads {
		if w.Name == workload {
			return true
		}
	}
	return false
}

// defs is the metrics a run reports: per-layer when traced, else
// end-to-end.
func (sp *spec) defs(traced bool) []metricSpec {
	if traced {
		return sp.PerLayer
	}
	return sp.EndToEnd
}

// commit reads the checked-out commit from .git without running git;
// a checkout that is not a repository reads "unknown".
func commit() string {
	head, err := os.ReadFile(".git/HEAD")
	if err != nil {
		return "unknown"
	}
	h := strings.TrimSpace(string(head))
	if ref, ok := strings.CutPrefix(h, "ref: "); ok {
		b, err := os.ReadFile(".git/" + ref)
		if err != nil {
			return "unknown"
		}
		h = strings.TrimSpace(string(b))
	}
	return h[:min(len(h), 12)]
}

// runOne measures one workload once, untraced or traced, and checks
// that it produced exactly the metrics of defs.
func runOne(w *workload, o options, traced bool, defs []metricSpec) result {
	run := runUntraced
	if traced {
		run = runTraced
	}
	r := run(w, o)
	if r.m != nil {
		if err := conform(r.m, defs); err != nil {
			return result{err: err}
		}
	}
	return r
}

func callersOf(w *workload) int {
	if w.callers > 0 {
		return w.callers
	}
	// One serial caller per connection, and no more connections than
	// processors: wire.Client is strictly request/response, so the
	// connections are the in-flight bound.
	return min(runtime.NumCPU(), 4)
}

// prepare is one set-up: generate the inputs, start the server,
// connect and make the warm-up pass. A non-nil tracer selects the
// traced stack and the span-recording kernels.
func prepare(w *workload, o options, t *tracer) (*load, error) {
	lookup := kernel.MustLookup
	if t != nil {
		lookup = twinLookup
	}
	p := newPlan(w, o.seed, lookup)
	tg, err := openTarget(w, callersOf(w), o.parserve, t)
	if err != nil {
		return nil, err
	}
	l := newLoad(p, tg, t)
	if err := l.warmUp(); err != nil {
		tg.close()
		return nil, err
	}
	return l, nil
}

// An untraced run sets up at least minSetups times, and goes on until
// setupBudget is spent or maxSetups is reached, so that the workloads
// whose set-up takes tens of milliseconds report a median of many.
// The timed window runs on the last set-up.
const (
	minSetups   = 5
	maxSetups   = 15
	setupBudget = 2 * time.Second
)

func runUntraced(w *workload, o options) result {
	var l *load
	var times []float64
	for begin := nowNs(); len(times) < minSetups || (len(times) < maxSetups && nowNs()-begin < int64(setupBudget)); {
		if l != nil {
			if err := l.tg.close(); err != nil {
				return result{err: err}
			}
		}
		start := nowNs()
		var err error
		if l, err = prepare(w, o, nil); err != nil {
			return result{err: err}
		}
		times = append(times, float64(nowNs()-start)/1e9)
	}
	win := l.run(o.window, slicesOf(o.window))
	r := result{m: endToEnd(win, times), attempted: len(win.samples), failed: win.failed(), err: win.err}
	lat, _, _ := okLatencies(win)
	tail := pickTail(len(lat))
	r.note = fmt.Sprintf("whole window: samples=%d p50=%.1fus p%g=%.1fus (the highest percentile with ten samples beyond it)",
		len(lat), percentile(lat, 50), tail, percentile(lat, tail))
	r.closed(l.tg.close())
	return r
}

func printMetrics(workload string, r result, defs []metricSpec) {
	for _, d := range defs {
		fmt.Printf("%-16s %-32s %16.4f %s\n", workload, d.Name, r.m[d.Name], d.Unit)
	}
	fmt.Printf("%-16s ops_attempted=%d ops_failed=%d\n", workload, r.attempted, r.failed)
	if r.note != "" {
		fmt.Printf("%-16s %s\n", workload, r.note)
	}
	if r.err != nil {
		fmt.Printf("%-16s FAILED: %v\n", workload, r.err)
	}
}

// printJSON ends the output with the one-line result the benchmark
// contract asks for.
func printJSON(r result, defs []metricSpec) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: r.err == nil, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]value{}}
	for _, d := range defs {
		out.Metrics[d.Name] = value{r.m[d.Name], d.Unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		fatalf("result: %v", err)
	}
	fmt.Println(string(b))
}

// summarize prints, per workload and metric, the median, minimum and
// maximum over the repeats, and for end-to-end metrics the spread
// (interquartile distance over median) beside its bound. With check
// it reports whether every spread but setup_s's stayed within bounds.
func summarize(sp *spec, values map[string]map[string][]float64, check bool) bool {
	ok := true
	for _, w := range sp.Workloads {
		for _, defs := range [][]metricSpec{sp.EndToEnd, sp.PerLayer} {
			for _, d := range defs {
				xs := append([]float64(nil), values[w.Name][d.Name]...)
				sort.Float64s(xs)
				line := fmt.Sprintf("summary %-16s %-32s median=%.4f min=%.4f max=%.4f %s",
					w.Name, d.Name, percentile(xs, 50), xs[0], xs[len(xs)-1], d.Unit)
				if d.Bound > 0 {
					s := spread(xs)
					line += fmt.Sprintf(" spread=%.4f bound=%.2f", s, d.Bound)
					if check && s > d.Bound && d.Name != "setup_s" {
						line += " EXCEEDED"
						ok = false
					}
				}
				fmt.Println(line)
			}
		}
	}
	return ok
}
