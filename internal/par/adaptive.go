package par

import (
	"runtime"
	"time"

	"repro/internal/adapt"
)

// Named adaptive sites for the library primitives. Each primitive's
// fork/join decision is keyed here (overridable per call via
// Options.Site), so e.g. a scan serving 1K-element requests and a scan
// serving 16M-element requests learn independent parameters.
var (
	siteScan    = adapt.NewSite("par.Scan", adapt.KindWorkers)
	siteReduce  = adapt.NewSite("par.Reduce", adapt.KindWorkers)
	sitePack    = adapt.NewSite("par.Pack", adapt.KindWorkers)
	sitePackIdx = adapt.NewSite("par.PackIndex", adapt.KindWorkers)
	siteHist    = adapt.NewSite("par.Histogram", adapt.KindWorkers)
	siteMerge   = adapt.NewSite("par.Merge", adapt.KindWorkers)
)

// Measure tracks one adaptive kernel call from decision to feedback.
// The zero Measure (adaptation off, degraded or converged decision) is
// inert; Done on it is a no-op, so call paths need no branching.
type Measure struct {
	ctl *adapt.Controller
	tok adapt.Token
	t0  time.Time
	n   int
}

// BeginAdaptive resolves the adaptive controller's decision for a
// kernel call of n elements and returns the Options to run with plus
// the Measure to Done() when the call finishes. When opts.Adaptive is
// nil (or there is nothing to tune) it returns opts unchanged and an
// inert Measure. opts.Site, when set, overrides site — that is how
// kernels give one primitive distinct per-phase identities.
//
// The returned Options have Adaptive and Site cleared: the decision
// covers the whole kernel call, so nested primitive calls run with the
// decided parameters instead of re-tuning (and re-timing) inside the
// measured region. That contract is enforced even against kernels that
// restore Adaptive on derived Options (psel keeps it set so its
// count/pack phases learn per round): the returned Options carry a
// reentrancy mark, and a nested BeginAdaptive that sees the mark is
// inert — no decision, no token, no timing — so the outer site's EWMA
// only ever sees its own whole-call measurements.
func BeginAdaptive(site *adapt.Site, n int, opts Options) (Options, Measure) {
	ctl := opts.Adaptive
	if ctl == nil {
		return opts, Measure{}
	}
	if opts.Site != nil {
		site = opts.Site
	}
	opts.Adaptive = nil
	opts.Site = nil
	if opts.inMeasured {
		// Reentrancy guard: an enclosing region already decided the
		// parameters and owns the timing; run with them as-is.
		return opts, Measure{}
	}
	if n <= 0 || site == nil {
		return opts, Measure{}
	}
	p := opts.procs()
	if p > n {
		p = n
	}
	if p <= 1 {
		return opts, Measure{}
	}
	d, tok := ctl.Decide(site, n, p, opts.executor().Occupancy())
	opts = applyDecision(opts, d)
	opts.inMeasured = true
	if !tok.Valid() {
		return opts, Measure{}
	}
	return opts, Measure{ctl: ctl, tok: tok, n: n, t0: time.Now()}
}

// Done records the elapsed wall-clock time of the call the Measure was
// issued for. Inert Measures ignore it.
func (m Measure) Done() {
	if m.ctl == nil {
		return
	}
	m.ctl.Record(m.tok, time.Since(m.t0).Seconds(), m.n)
}

// applyDecision overlays a controller decision onto the caller's
// Options. A serial decision collapses to one worker; a parallel one
// pins the decided worker count, overrides grain/policy where the
// lattice tunes them, and sets SerialCutoff to 1 — the lattice's
// serial candidate, not a static threshold, owns the cutoff now.
func applyDecision(opts Options, d adapt.Decision) Options {
	if d.Serial {
		opts.Procs = 1
		return opts
	}
	opts.Procs = d.Procs
	if d.Grain > 0 {
		opts.Grain = d.Grain
	}
	if d.Policy >= 0 {
		opts.Policy = Policy(d.Policy)
	}
	opts.SerialCutoff = 1
	return opts
}

// callerPC identifies the call site of the exported par function that
// (transitively) invoked it: the frame three logical hops up —
// runtime.Callers, callerPC, the par entry point, then its caller.
func callerPC() uintptr {
	var pcs [1]uintptr
	if runtime.Callers(3, pcs[:]) == 0 {
		return 0
	}
	return pcs[0]
}
