// Package difftest is the differential oracle test suite: every
// parallel kernel in the repository is cross-checked against its
// sequential oracle (internal/seq, or a transparent reference loop)
// over the full configuration matrix — sizes {0, 1, small, odd,
// large}, every par.Policy, worker counts {1, 2, GOMAXPROCS}, scratch
// on/off, and adaptive cells, whose repeated calls each run under a
// different schedule, as an online tuner would pick them, and must
// nonetheless give bit-identical results while only timings vary.
//
// This is the determinism contract any schedule choice relies on (a
// schedule may change freely because schedules never change results)
// made executable. The package contains only tests; there is no
// library code to import.
package difftest
