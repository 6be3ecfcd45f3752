// Package machine implements the abstract parallel machine models used to
// design and predict the performance of the case-study algorithms: PRAM
// work/depth (with Brent's scheduling bound), BSP (Valiant 1990), LogP
// (Culler et al. 1993) broadcast, LogGP (Alexandrov et al. 1995) bulk
// messages, and an ideal-cache miss model for blocked matmul.
//
// In the algorithm-engineering loop, models serve two purposes:
//
//  1. Design time: choose between algorithms by comparing their model
//     costs before writing code (e.g. pointer jumping is work-inefficient
//     — Θ(n log n) work — so it can only win when P is large relative to
//     the log n factor).
//  2. Validation time: fit the model's machine parameters from
//     micro-benchmarks, predict each kernel's running time, and compare
//     against measurements. Agreement means the implementation has no
//     hidden performance bug; disagreement is a finding. Experiments E9
//     and E13 perform this validation.
//
// Layering: machine is a leaf modeling package; it feeds bsp (the
// simulated machine's cost accounting), core's calibration fits
// (Fit/Calibration) and experiments.
package machine
