// Package psel implements the selection (k-th smallest) case study: a
// parallel quickselect built from the library's own primitives —
// parallel count to size the partitions, parallel pack to materialize
// the surviving side — against the sequential in-place quickselect.
//
// Selection is the methodology's "reduction-heavy divide and conquer"
// exhibit: unlike sorting, only one side of each partition survives, so
// total work is expected O(n) and the parallel version's extra passes
// (count + pack = 2 sweeps per round vs quickselect's 1) must be bought
// back by parallel bandwidth. It is also the cleanest consumer of the
// Pack primitive, which is why the case study exists: the methodology
// says primitives earn their place by powering whole algorithms.
//
// With one worker, or at most 4 096 elements, Select skips the
// partition loop for its serial leaf: a scratch copy and the in-place
// quickselect, whose partition rounds are budgeted so that no input
// costs more than O(n log n). The serve runtime's Select and TopK
// requests run at Procs 1 in a batch slot, so they always take the
// serial leaf.
//
// Layering: psel consumes par (count/pack), scratch (ping-pong
// buffers) and rng (pivots); it feeds core's selection
// experiments, pipeline's TopK pruning, the serve runtime's
// Select and TopK requests and the repro facade.
package psel
