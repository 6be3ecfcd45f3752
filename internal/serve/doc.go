// Package serve is the request-serving runtime: a multi-tenant front
// door that sits between concurrent callers and the kernel stack, the
// layer the ROADMAP's heavy-traffic north star serves requests through.
//
// Every other entry point in the repository (the repro facade, the
// parbench experiments) assumes one caller invoking
// one kernel at a time. Under request traffic — many goroutines each
// issuing a small sort, selection, histogram, scan or graph query —
// that model pays one fork/join, one adaptive decision and one set of
// scratch acquisitions per tiny call, and lets any one caller flood
// the shared executor. serve replaces it with one request interface,
// Front — CallBudget and CallDeltaBudget, implemented by Sharded and
// (in internal/wire) the socket Client, with the typed
// Sort/Select/Histogram/Scan/Sum/BFS helpers written once as package
// functions over it — and, behind that interface, three mechanisms in
// request order, each run per shard (Sharded routes a tenant to its
// home shard by hash, and with more than one shard a diffusive
// balancer migrates queued requests between ring neighbours):
//
//   - Admission control, driven by exec.Executor.Occupancy. Each
//     tenant owns a bounded FIFO; a full queue rejects with ErrRejected
//     (backpressure the caller can see), and the effective queue bound
//     halves once the executor is saturated, so rejection pressure
//     rises with load instead of queueing unboundedly. Batches formed
//     while occupancy is moderate run with proportionally shed
//     workers; at saturation they are shed to serial execution on the
//     dispatcher goroutine — the same degrade-don't-pile-on discipline
//     as internal/adapt, applied one layer up.
//
//   - Batched execution. A single dispatcher drains the tenant queues
//     into one batch (bounded by maxBatch, accumulated for at most
//     batchWindow) and executes the whole batch as ONE fused parallel
//     loop over requests — one pooled fork/join amortized across N
//     requests, each request running its kernel serially inside its
//     slot. The batch loop is an adaptive call site ("serve.batch"),
//     so the number of workers a batch runs on is learned per
//     batch-size class like any kernel's; its slots claim requests
//     off a shared cursor, and a warm batch allocates nothing. Request
//     temporaries draw from the configured scratch pool exactly as
//     direct kernel calls do.
//
//   - Fair-share scheduling. Batches are formed round-robin across
//     tenants, one request per tenant per turn, so a hot tenant's
//     backlog cannot starve light tenants: a tenant that submits one
//     request gets a batch slot within one round regardless of how
//     deep any other tenant's queue is. Per-tenant accept/reject/
//     complete counters (TenantStats) make the shares observable.
//
// Requests whose inputs are large enough that batching them would
// stall the batch (Config.PipelineCutoff) take the long route: the
// kernel's long-route adapter (Kernel.Stream) runs on the caller's
// goroutine, outside the queues, under options spanning the executor's
// whole width (longOpts) — for sort and scan alike one call of the
// kernel, the serial leaf on a 1-worker shard. They enter through the
// same door as every other request (closed check, tenant fold under
// maxTenants, Accepted) and leave through the same exit (Completed, a
// kernel panic on the caller's goroutine confined to the request's
// error; a panic on a pooled worker is out of scope), and Close waits
// for them. Never waiting on a queue, they stay outside the queue bound
// and the deadline rung.
//
// With Config.SLO set, a deadline rung joins the admission ladder.
// The door refuses a request with ErrDeadlineExceeded when the
// queue-depth-predicted wait — depth times a dispatcher-owned EWMA of
// per-request batch service time — already exceeds the budget, so
// callers learn in microseconds instead of after queueing. Every
// admitted request carries a deadline stamp, and batch formation
// expires stamped requests whose budget lapsed while queued (counted
// Expired, never occupying a batch slot). Stamps ride migrated
// requests, so a thief shard with no SLO of its own still enforces a
// home shard's budget, charging the expiry to the admitting tenant
// entry. Refusing fast bounds the corrected tail latency that the
// open-loop harness (internal/loadgen, which serve never imports)
// makes visible.
//
// Layering: serve sits above internal/exec (occupancy gauge, pooled
// fork/join), internal/scratch (request temporaries), internal/adapt
// (the batch site) and internal/kernel (the registry whose descriptors
// it dispatches through, long-route adapters included); it feeds
// internal/wire (the listener serves onto a Front, the client is one),
// and the repro facade (repro.NewShardedServer, repro.Front,
// repro.ServeSort...). Experiment E23 quantifies
// the batching win over naive per-request dispatch at equal worker
// count; the embed_skew workload of the repo's benchmark (bench/)
// tracks the batched path per change.
package serve
