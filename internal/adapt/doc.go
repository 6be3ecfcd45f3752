// Package adapt is the online load-aware tuning runtime: a
// per-call-site controller that picks the parameters the offline
// engineering loop (core.TuneGrain / core.TunePolicy) picks by hand —
// grain size, schedule policy, worker count and the serial cutoff —
// per call, per input size, and per current executor load.
//
// The paper's discipline is "measure, don't guess". The offline sweeps
// honor it once, at development time, for one machine and one input
// size; every production call site then hard-codes the answer. adapt
// closes the loop at run time instead:
//
//   - Prior: each candidate parameter setting is seeded with a
//     predicted cost from the machine model (internal/machine BSP
//     parameters, fitted by core.Fit), so the very first calls already
//     exploit a sensible choice instead of a blind default.
//   - Feedback: non-degraded calls are timed, and the measurement
//     refines the candidate's cost estimate (an EWMA of seconds per
//     element). Selection is epsilon-greedy over the candidate lattice:
//     one deterministic sweep tries every candidate once, a decaying
//     exploration rate then revisits random candidates, and after
//     ConvergeAfter recorded calls the (site, size-class) converges to
//     pure exploitation — the fast path is two atomic loads and no
//     timing at all.
//   - Load: when the executor's occupancy gauge reports a busy pool
//     (exec.Executor.Occupancy), decisions degrade toward fewer
//     workers, larger grains and ultimately serial execution instead of
//     piling more fork/joins onto saturated workers; degraded calls are
//     not measured (their timings would poison the cache) and the site
//     re-expands as soon as load drops.
//
// The cache is keyed by (site, size-class): a Site names one kernel
// call site (either declared explicitly with NewSite or derived from
// the caller's program counter by SiteForPC), and the size class is the
// power-of-two bucket of the input length, so a site serving mixed
// request sizes learns a separate answer for each magnitude.
//
// Determinism: the controller only ever changes how work is scheduled
// — worker count, chunking, schedule policy, serial fallback. Every
// kernel in this repository is deterministic with respect to its
// results under all of those (that is the differential oracle suite's
// contract, internal/difftest), so adaptation changes timings, never
// outputs.
//
// Layering: adapt sits beside the executor runtime — it consumes
// machine (cost-model priors), rng (exploration) and exec's
// Occupancy gauge — and is consumed through par.Options.Adaptive by
// every kernel layer (par primitives, psort/psel/plist/pmat/
// pstencil/pgraph sites) and the serve runtime's batch loop. The
// repro facade exposes it as repro.Adaptive()/NewAdaptiveController.
package adapt
