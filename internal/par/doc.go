// Package par provides loop-level parallel primitives — parallel for,
// reduce, scan (prefix sums), filter/pack, histogram, and merge — with
// explicit, selectable scheduling policies.
//
// The package encodes the central lesson of parallel algorithm
// engineering: the abstract algorithm (a parallel loop) and the schedule
// that maps iterations to processors are separate design decisions, and
// the right schedule depends on the work distribution of the input.
// Static schedules are cheapest on uniform work; guided/dynamic schedules
// pay per-chunk synchronization to fix the load imbalance caused by
// skewed (e.g. power-law) work. Experiment E10 quantifies the tradeoff.
//
// All schedules dispatch onto the persistent executor runtime
// (internal/exec): the process-wide worker pool by default, or a
// dedicated pool pinned via Options.Executor. No goroutine is spawned
// per call on the steady-state path, and nested parallel calls (a
// primitive invoked from inside another primitive's body, or from a
// sched task) are safe — the executor's caller-participation discipline
// degrades them toward inline execution instead of deadlocking.
// Working buffers (scan partials, pack counts, histogram privates)
// come from the scratch-arena pool (internal/scratch, selected by
// Options.Scratch), so steady-state calls allocate only O(1) closure
// frames. Pack, index pack, histogram and prefix sums exist only in
// their *Into forms (PackInto, PackIndexInto, HistogramInto,
// PrefixSumsInto), which write into caller-owned result buffers, so
// those allocate nothing either.
//
// All primitives are deterministic with respect to their results (order
// of side effects is not specified); scan and reduce require associative
// operators and are exact for integer types.
//
// Layering: par consumes exec (dispatch) and scratch (partials,
// counts, privates); it feeds every case-study kernel (psort, psel,
// plist, pmat, pstencil, pgraph), the serve batch loop, core's experiments and
// the repro facade.
package par
