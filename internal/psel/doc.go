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
// pack primitive (par.PackInto), which is why the case study exists:
// the methodology says primitives earn their place by powering whole
// algorithms.
//
// With one worker, or at most 4 096 elements, Select skips the
// partition loop for its serial leaf, and the loop ends in the same
// leaf. The serve runtime's Select and TopK requests run at Procs 1 in
// a batch slot, so they always take it. From 512 elements up the leaf
// first shrinks the input the way Floyd and Rivest's SELECT does (CACM
// 1975): two order statistics of a stride sample of about n^(2/3) keys
// bracket rank k, one branch-free pass keeps only the keys between
// them, and quickselect runs on that band of about 3·n^(2/3) keys. A
// bracket that misses k (an input whose period lines up with the
// stride can do this) falls back to a scratch copy and quickselect on
// all of xs, the whole leaf below 512 elements. The leaf's quickselect
// partitions without branches, so mispredicted compares cost it
// nothing (Edelkamp and Weiß, "BlockQuicksort", ESA 2016), and splits
// off a run of keys equal to the pivot in one round. Its partition
// rounds are budgeted, so no input costs more than O(n log n).
//
// Smallest, the K smallest keys in order (the top-k kernel and its
// delta fold), runs the same leaf at rank K-1 with the bracket's lower
// end open: the band already holds the K smallest, so it is selected
// and its first K keys sorted, without a second pass over xs. Above
// the serial leaf it selects the threshold with Select and gathers.
//
// SelectSeq, the select kernel's serial oracle, keeps the plain copy
// and a Hoare quickselect (hoareSelect), so no oracle shares the
// leaf's filter or partition.
//
// Layering: psel consumes par (count/pack), scratch (ping-pong
// buffers, the leaf's copy and sample) and rng (pivots); it feeds
// core's selection experiments, the serve runtime's Select and TopK
// requests and the repro facade.
package psel
