package main

import (
	"fmt"
	"io"
	"runtime"
	"strings"
	"time"

	"repro/internal/adapt"
	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/par"
	"repro/internal/perf"
	"repro/internal/serve"
)

// printKernels renders the registry index: one row per registered
// kernel straight from kernel.All(), so a new registration shows up
// here with no CLI edits.
func printKernels(w io.Writer) {
	fmt.Fprintln(w, "name       variants                      stream  relations  title")
	for _, k := range kernel.All() {
		names := make([]string, len(k.Variants))
		for i, v := range k.Variants {
			names[i] = v.Name
		}
		stream := "-"
		if k.Stream != nil {
			stream = "yes"
		}
		fmt.Fprintf(w, "%-10s %-29s %-7s %-10d %s\n",
			k.Name, strings.Join(names, ","), stream, len(k.Meta), k.Title)
	}
}

// runKernelDemo drives one registered kernel through every ladder its
// registration wires it into: the dispatched one-shot entrypoint
// (verified against the serial oracle), each algorithm variant
// individually, and the serve batch path (admission, queueing and the
// fused batch loop included). It honors -quick, -procs, -executor,
// -scratch and -adapt through cfg.
func runKernelDemo(cfg core.Config, name string, w io.Writer) error {
	k := kernel.Lookup(name)
	if k == nil {
		return fmt.Errorf("unknown kernel %q; registered: %s", name, strings.Join(kernel.Names(), ", "))
	}
	procs := runtime.GOMAXPROCS(0)
	if len(cfg.Procs) > 0 {
		procs = cfg.Procs[len(cfg.Procs)-1]
	}
	n := 1 << 16
	if cfg.Quick {
		n = 1 << 13
	}
	seed := cfg.WorkloadSeed()
	opts := par.Options{Procs: procs, Executor: cfg.Executor, Scratch: cfg.Scratch}
	if cfg.Adaptive {
		opts.Adaptive = adapt.Default()
	}
	fmt.Fprintf(w, "== kernel %s — %s (n=%d, P=%d)\n", k.Name, k.Title, n, procs)

	// One-shot dispatched entrypoint, verified against the oracle.
	want := k.Gen(n, seed)
	t0 := time.Now()
	k.Serial(want)
	serialT := time.Since(t0).Seconds()
	got := k.Gen(n, seed)
	t0 = time.Now()
	k.Run(got, opts)
	runT := time.Since(t0).Seconds()
	if err := k.Check(got, want); err != nil {
		return fmt.Errorf("one-shot result differs from serial oracle: %w", err)
	}
	fmt.Fprintf(w, "one-shot: %s (serial oracle %s) — verified\n",
		perf.FormatDuration(runT), perf.FormatDuration(serialT))

	// Each variant individually (the lattice candidates).
	for i, v := range k.Variants {
		a := k.Gen(n, seed)
		t0 := time.Now()
		k.RunVariant(i, a, opts)
		d := time.Since(t0).Seconds()
		if err := k.Check(a, want); err != nil {
			return fmt.Errorf("variant %s differs from serial oracle: %w", v.Name, err)
		}
		fmt.Fprintf(w, "variant %-12s %s — verified\n", v.Name+":", perf.FormatDuration(d))
	}

	// The serve batch path: the same kernel behind admission control.
	s := serve.New(cfg.ServeConfig(procs))
	defer s.Close()
	reqs := 64
	if cfg.Quick {
		reqs = 16
	}
	sa := k.Gen(4096, seed)
	t0 = time.Now()
	for i := 0; i < reqs; i++ {
		if err := s.CallBudget("demo", k, sa, 0); err != nil {
			return fmt.Errorf("serve request %d: %w", i, err)
		}
	}
	perReq := time.Since(t0).Seconds() / float64(reqs)
	// Apply the oracle the same number of times: kernels like gups
	// accumulate state across calls, and every kernel is a pure state
	// transformation, so repeated Serial mirrors repeated Call exactly.
	sw := k.Gen(4096, seed)
	for i := 0; i < reqs; i++ {
		k.Serial(sw)
	}
	if err := k.Check(sa, sw); err != nil {
		return fmt.Errorf("serve result differs from serial oracle: %w", err)
	}
	st := s.Stats()
	fmt.Fprintf(w, "serve: %d reqs, %s/req, batches=%d — verified\n",
		reqs, perf.FormatDuration(perReq), st.Batches)
	return nil
}
