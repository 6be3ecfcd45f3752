// Package bsp implements a Bulk-Synchronous Parallel runtime on virtual
// processors (goroutines), the repository's simulated parallel machine.
//
// Why simulate: the methodology's experiments require scaling curves over
// processor counts that exceed the physical cores available (this
// reproduction may run on a single-core container). The BSP runtime
// executes the same superstep-structured algorithms on P virtual
// processors while *accounting* model costs exactly — per superstep it
// records the maximum local work w and the maximum h-relation h, so the
// BSP cost Σ (w + g·h + l) is available for any machine parameters
// (g, l) regardless of the host's physical parallelism. Predicted curves
// are therefore deterministic and host-independent; wall-clock
// measurements of the real goroutine execution are reported alongside.
//
// Programming model (SPMD, following BSPlib): RunOn starts P copies of
// the program. Within a superstep a processor computes locally (declaring
// abstract operation counts via Charge) and queues messages with Send;
// Sync ends the superstep, delivers messages, and returns the processor's
// inbox for the next superstep. All processors must execute the same
// number of Sync calls; a processor that returns early simply stops
// participating (its arrivals are treated as implicit empty supersteps).
//
// Layering: bsp consumes machine (BSP cost parameters) and exec
// (virtual processors run on executor-accounted blocking
// goroutines); it feeds the core experiment suite's
// virtual-processor sweeps and examples/bsppredict.
package bsp
