package core

import (
	"testing"

	"repro/internal/adapt"
	"repro/internal/par"
)

// The fixed kernel size and worker count the convergence test and its
// benchmark share.
const convergeN, convergeProcs = 1 << 20, 4

// convergeBody returns the kernel both drive: one multiply-add per
// element over a fixed input.
func convergeBody() func(lo, hi int) {
	xs := make([]float64, convergeN)
	dst := make([]float64, convergeN)
	for i := range xs {
		xs[i] = float64(i%1024) * 0.5
	}
	return func(lo, hi int) {
		for i := lo; i < hi; i++ {
			dst[i] = xs[i]*1.000001 + 0.5
		}
	}
}

// TestConvergedAdaptiveMatchesTunedGrain is the acceptance check for
// the online tuner, stated on its decision counters rather than on a
// clock: 80 calls of one kernel at one size converge the call site, and
// from then on the controller only exploits — 20 more calls are 20
// decisions and no exploration. Whether the converged choice is as fast
// as the offline TuneGrain sweep's best is a wall-clock claim and lives
// in BenchmarkConvergedVsTunedGrain.
func TestConvergedAdaptiveMatchesTunedGrain(t *testing.T) {
	site := adapt.NewSite("core.test.converge", adapt.KindRange)
	ctl := adapt.New(adapt.Config{ConvergeAfter: 32, Seed: 1})
	opts := par.Options{Procs: convergeProcs, Adaptive: ctl, Site: site}
	body := convergeBody()
	for i := 0; i < 80; i++ {
		par.ForRange(convergeN, opts, body)
	}
	if !ctl.Converged(site, convergeN) {
		t.Fatalf("site not converged after 80 calls (%d measured)", ctl.Visits(site, convergeN))
	}
	before := ctl.Stats()
	for i := 0; i < 20; i++ {
		par.ForRange(convergeN, opts, body)
	}
	after := ctl.Stats()
	if d := after.Decisions - before.Decisions; d != 20 {
		t.Errorf("20 converged calls made %d decisions, want 20", d)
	}
	if e := after.Explorations - before.Explorations; e != 0 {
		t.Errorf("converged site still explores: %d explorations in 20 calls", e)
	}
}

// BenchmarkConvergedVsTunedGrain is the wall-clock half of the claim
// above: it times calls of the converged adaptive site against the
// best grain the offline TuneGrain sweep finds, and reports their ratio
// as adaptive/tuned (1.0 is parity).
func BenchmarkConvergedVsTunedGrain(b *testing.B) {
	body := convergeBody()
	tuned := TuneGrain([]int{256, 1024, 4096, 16384}, 5, func(grain int) {
		par.ForRange(convergeN, par.Options{Procs: convergeProcs, Policy: par.Dynamic,
			Grain: grain, SerialCutoff: 1}, body)
	})
	opts := par.Options{Procs: convergeProcs, Adaptive: adapt.New(adapt.Config{ConvergeAfter: 32, Seed: 1})}
	for i := 0; i < 80; i++ {
		par.ForRange(convergeN, opts, body)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		par.ForRange(convergeN, opts, body)
	}
	b.StopTimer()
	b.ReportMetric(b.Elapsed().Seconds()/float64(b.N)/tuned.Seconds[tuned.Best], "adaptive/tuned")
}
