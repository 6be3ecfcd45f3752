// Package psort implements the parallel sorting case study: sample sort,
// parallel merge sort, and parallel radix sort, each engineered
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
//   - Radix sort is the non-comparison contender. In parallel it is
//     sample sort's skeleton — splitter sample, per-worker bucket
//     counts, one scatter — with the serial radix leaf sorting each
//     bucket: the splitters stand in for the top digits, and each
//     leaf makes its few range-relative passes over a p-th of the keys
//     where a parallel LSD sort makes one full memory shuffle per
//     digit.
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
