// Package rng provides a small, fast, deterministic pseudo-random
// number generator for reproducible parallel experiments.
//
// Reproducibility is central to the algorithm-engineering loop: every
// workload in this repository is generated from an explicit seed, and
// parallel workers each own a generator seeded per worker rather than
// sharing (and locking) one.
//
// The core generator is SplitMix64 (Steele, Lea, Flood: "Fast Splittable
// Pseudorandom Number Generators", OOPSLA 2014), which passes BigCrush
// and has a period of 2^64; New derives each seed's Weyl increment
// with SplitMix64's gamma mix.
//
// Layering: rng is a leaf utility package; it feeds gen's
// workload generators, psort's splitter sampling, psel's pivot
// choice and adapt's exploration policy.
package rng
