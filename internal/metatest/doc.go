// Package metatest is the metamorphic test suite: instead of (only)
// comparing kernels against oracles on fixed inputs, it asserts the
// algebraic relations that must hold between a kernel's outputs on
// *related* inputs — properties that catch bugs no single-input oracle
// can express:
//
//   - Permutation invariance: sorting, histogramming, selection and
//     reduction must not care about input order.
//   - Scaling/translation relations: prefix sums commute with scaling;
//     translating every key translates the sorted output; both must
//     hold exactly for integers.
//   - Idempotence: sorting a sorted array is the identity.
//   - Graph relabeling: BFS distances, connected-component partitions
//     and PageRank values must be equivariant under a permutation of
//     the vertex identifiers.
//
// Like the differential suite (internal/difftest), every relation is
// checked across the configuration matrix — schedules × worker counts
// × scratch on/off × adaptive cells that switch schedule per call —
// because a metamorphic violation that only appears under one schedule
// is exactly the class of race the matrix exists to surface. The
// package contains only tests.
package metatest
