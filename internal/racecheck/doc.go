// Package racecheck reports whether the race detector is on, so
// allocation-regression tests can skip themselves: race
// instrumentation allocates, which would fail every AllocsPerRun
// assertion spuriously.
//
// Layering: racecheck is a leaf build-info package; it feeds the
// allocation-regression tests in exec, kernel, par, psort, scratch
// and serve, which skip themselves under -race.
package racecheck
