// Package core is the engineering-loop library: it ties the substrates
// together into the methodology's workflow — tune (grain size, schedule
// policy), calibrate (fit machine-model parameters from measurements),
// predict (evaluate model costs), and experiment (regenerate every table
// and figure of the evaluation; Experiments is the index, printed by
// `parbench -list`).
//
// Layering: core is the top of the internal stack — it consumes
// every kernel package plus gen, perf, machine, serve and loadgen to
// regenerate the evaluation, and feeds the repro facade
// (RunExperiment) and cmd/parbench.
package core
