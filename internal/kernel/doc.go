// Package kernel is the typed kernel-descriptor registry: the single
// place a computational kernel is declared once and threaded through
// every runtime and testing layer.
//
// One Register call declares a kernel's name, its algorithm variants,
// its serial oracle, argument validation, a deterministic input
// generator, an output checker, an input-feature extractor for
// variant dispatch with a measured per-class default (the algorithm
// Run picks for that class), an optional long-route adapter,
// the Args field its result lives in, and its metamorphic relations.
// The layers then derive everything from the descriptor:
//
//   - internal/serve dispatches requests through Kernel.Run instead of
//     a per-kernel op switch, and runs Kernel.Stream — the long-route
//     adapter, when the kernel has one — on the caller's goroutine,
//     outside the queues, for large inputs;
//   - internal/difftest oracle-checks every registered kernel (and
//     every variant) against Kernel.Serial across its size × policy ×
//     procs matrix;
//   - internal/metatest replays each kernel's MetaRelations across the
//     same matrix;
//   - internal/wire replies with the section Kernel.Out names, and
//     internal/rescache stores that field for kernels that set Cache;
//   - internal/core's experiment E25 builds its one-shot vs serve vs
//     long-route table from All();
//   - cmd/parbench lists and demos kernels by name.
//
// Adding a kernel is therefore one registration file: gups.go in this
// package is the proof — the GUPS random-access kernel arrives fully
// threaded (serve request path, difftest oracle, metamorphic
// property, experiment row, parbench demo) with no edits to any of
// those layers.
//
// # Layering
//
// kernel sits above the kernel implementations (psort, psel, pgraph,
// par) and the runtimes they share (exec, scratch), and below
// serve, difftest, metatest, core and cmd/parbench, which consume the
// registry. It must not import serve: every long-route adapter is
// one call of its kernel, run under the options serve hands it.
package kernel
