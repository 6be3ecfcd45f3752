// Package pipeline is the streaming dataflow runtime: a composable
// chain of stages (source → transforms → sink) that processes inputs
// in cache-sized chunks instead of fully materialized arrays, turning
// the repository's one-shot kernels into a sustained-traffic engine.
//
// Motivation. Every kernel layer so far — the par primitives, the
// sorts, selection, the graph sweeps — is a one-shot call on a whole
// input: a multi-stage workload (generate → filter → sort → histogram)
// pays a full barrier between stages, allocates a full-size
// intermediate per stage, and streams every intermediate through DRAM.
// The pipeline runtime fuses such chains: data flows between stages in
// chunks small enough to stay cache-resident, stages run concurrently
// (each on its own dedicated goroutine routed through the shared
// executor, the same discipline as the BSP virtual processors), and
// the only full-size materialization left is whatever the sink itself
// demands.
//
// Mechanics.
//
//   - Chunks: a chunk is a scratch-pooled []int64 of at most
//     Config.ChunkSize elements plus its scratch.Handle. Buffers are
//     recycled through internal/scratch, so steady-state chunk
//     processing allocates nothing — the generation stamps turn
//     ownership bugs into panics instead of corruption.
//   - Backpressure: stages are connected by bounded queues of
//     Config.QueueDepth chunks. A fast producer blocks on a full
//     queue; nothing in the pipeline buffers unboundedly (the sort and
//     top-k stages hold state proportional to their algorithmic needs,
//     which for sort is the stream itself).
//   - Shutdown: Close (or a sink error) cancels the run. Producers
//     never block on a dead consumer — every send selects against the
//     cancel channel — and every stage drains its input to release
//     in-flight chunk buffers back to the pool before exiting, so a
//     cancelled pipeline leaves no scratch bytes on loan and no
//     goroutine behind.
//   - Tuning: each stage runs its kernels under its own adaptive call
//     site (Config.Opts.Adaptive), so the tuning runtime learns each
//     stage's behavior under the pipeline's own induced load. Stages
//     that wrap kernels with internal sites (sort, top-k) pass the
//     controller through; the reentrancy guard in par.BeginAdaptive
//     keeps nested regions from recording.
//
// Stages wrap the existing kernels — Map/Filter via par.For and
// par.PackInto, Sort via one psort call on the gathered stream,
// RunningSum via par.ScanInclusive with a carried prefix, TopK via
// psel.Select pruning, histogram/reduce sinks via par.HistogramInto
// and par.Reduce — so the pipeline inherits their schedules, scratch
// reuse and determinism; chunking changes timings, never results.
//
// Layering: pipeline consumes exec (stage goroutines and kernel
// dispatch), scratch (chunk buffers), par/psort/psel (intra-chunk
// kernels) and adapt (stage sites); it feeds core experiment E22,
// parbench's -pipeline demo and the repro facade (NewPipeline). The
// serve runtime's long route does not use it: for sort and scan alike,
// one kernel call beat streaming the input through chunks.
package pipeline
