// Package psort implements the parallel sorting case study: sample sort,
// parallel merge sort, and parallel LSD radix sort, each engineered
// against the sequential baselines in internal/seq.
//
// The three algorithms span the design space the methodology explores:
//
//   - Sample sort is the classic distribution sort for parallel machines:
//     splitter selection makes bucket sizes even with high probability, so
//     the final per-bucket sorts are balanced and independent.
//   - Parallel merge sort is the work-efficient fork/join comparison sort;
//     its merges become parallel (merge-path) near the root where only a
//     few large runs remain.
//   - Radix sort is the non-comparison contender: O(n · 64/r) work, but
//     each pass is a full memory shuffle, so it wins only when keys are
//     short or memory bandwidth is plentiful.
//
// Experiments E2 and E3 compare them across input distributions and
// processor counts.
//
// Layering: psort consumes par (fork/join, merge), sched (the
// steal-based sort), scratch (samples, count matrices, double
// buffers), seq (serial fallbacks) and rng (sampling); it feeds
// core's sorting experiments, the kernel registry's sort (and with it
// the serve runtime) and the repro facade's three sorts.
package psort
