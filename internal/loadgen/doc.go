// Package loadgen holds the serving harness's two traffic drivers: the
// open-loop generator behind its honest tail-latency numbers, and the
// closed-loop client pool it is compared against.
//
// A closed-loop client (issue, wait, issue again) cannot observe a
// stall it is itself stuck behind: while one request is delayed, the
// client stops sending, so every request that *would* have arrived
// during the stall — and would have seen the stall's queueing delay —
// is simply missing from the sample. The printed percentiles are then
// computed over a survivor population and understate the tail, a
// measurement bug known as coordinated omission. loadgen fixes it the
// standard way: request arrival times come from a fixed Schedule drawn
// before the run (constant-rate or Poisson via internal/rng), the
// generator fires each request at its scheduled instant regardless of
// whether earlier ones have finished, and every sample records two
// latencies — the uncorrected one from the actual send and the
// corrected one from the *intended* arrival, so delay the harness
// accumulated while the system was stalled is charged to the system.
// Result reports both side by side; when they diverge, the corrected
// column is the one the north-star metric cares about.
//
// Closed is the closed-loop sibling of Run, kept here so the two loops
// are measured by the same code: N client goroutines draw request
// indices from one ticket counter, each waiting for its call to return
// before drawing the next, and fill the same Sample records (Intended
// equals Sent, so the two latencies coincide). Summarize, Latencies, OK
// and Failed therefore serve both loops, and a table that puts a
// closed-loop row beside open-loop rows (E26) differs between them only
// in the driver it calls. On both loops the clock runs around the whole
// do call, so whatever the caller does inside it — refreshing a 16 KiB
// payload, retrying a rejected request under backoff — is part of the
// sample. The payload copy is under a microsecond against table rows of
// 100 µs and up.
//
// # Layering
//
// loadgen sits beside the harness layers, not under the runtime ones:
// it depends only on internal/rng (arrival draws) and internal/perf
// (percentiles), and knows nothing about what a request is — callers
// pass a func. internal/core (experiments E23, E24, E26 and E29)
// drives internal/serve through it; internal/serve never imports it.
package loadgen
