package core

import (
	"fmt"
	"runtime"

	"repro/internal/adapt"
	"repro/internal/kernel"
	"repro/internal/par"
	"repro/internal/perf"
	"repro/internal/serve"
)

// Sixth batch of extension experiments: the kernel registry as the
// experiment driver. E25's row set is kernel.All() — registering a
// kernel adds its row to Table 15 with no edits here.

func init() {
	Experiments = append(Experiments,
		Experiment{"E25", "Table 15", "Registry kernel ladder: one-shot vs serve batch path vs streamed pipeline, per registered kernel", E25KernelRegistry},
	)
}

// E25KernelRegistry regenerates Table 15: every registered kernel
// measured through the three execution ladders the registry wires it
// into — a direct one-shot Run (the classic benchmark shape), the
// serve batch path at request-sized inputs (admission, queueing and
// the fused batch loop included), and the streamed pipeline route for
// kernels with a Stream adapter (the server's own cutoff does the
// routing, lowered so the table's big inputs qualify). Comparing the
// serve column against one-shot at the same size exposes the serving
// runtime's overhead per request; the stream column exposes what
// chunked overlap buys on long requests.
func E25KernelRegistry(cfg Config) *perf.Table {
	p := runtime.GOMAXPROCS(0)
	r := cfg.runner()
	nBig := cfg.size(1<<17, 1<<13)
	nSmall := cfg.size(4096, 1024)
	reqs := cfg.size(256, 32)
	t := perf.NewTable(
		fmt.Sprintf("Table 15: registry kernel ladder, P=%d (one-shot/stream n=%d, serve n=%d, %d reqs/point)",
			p, nBig, nSmall, reqs),
		"kernel", "variants", "one-shot", "serve(us/req)", "stream")

	var ctl *adapt.Controller
	if cfg.Adaptive {
		ctl = adapt.Default()
	}
	s := serve.New(serve.Config{
		Workers:        p,
		Executor:       cfg.Executor,
		Scratch:        cfg.Scratch,
		Adaptive:       ctl,
		PipelineCutoff: nBig,
	})
	defer s.Close()
	opts := cfg.opts(p, par.Static, 0)

	for _, k := range kernel.All() {
		a := k.Gen(nBig, cfg.seed())
		one := r.Time(func(int) { k.Run(a, opts) }).Median

		small := k.Gen(nSmall, cfg.seed())
		perReq := 0.0
		if err := s.CallBudget("e25", k, small, 0); err != nil {
			t.AddRowf(k.Name, len(k.Variants), perf.FormatDuration(one), "error: "+err.Error(), "-")
			continue
		}
		perReq = r.Time(func(int) {
			for i := 0; i < reqs; i++ {
				_ = s.CallBudget("e25", k, small, 0)
			}
		}).Median / float64(reqs)

		stream := "-"
		if k.Stream != nil {
			big := k.Gen(nBig, cfg.seed())
			st := r.Time(func(int) { _ = s.CallBudget("e25", k, big, 0) }).Median
			stream = perf.FormatDuration(st)
		}
		t.AddRowf(k.Name, len(k.Variants), perf.FormatDuration(one), perReq*1e6, stream)
	}
	return t
}
