// Package exec is the process-wide persistent executor runtime that
// every parallel layer of the repository dispatches onto: the par loop
// schedules, the sched fork/join scheduler, the sorting/graph/matrix
// kernels (through par), and the BSP simulator's virtual processors.
//
// Motivation. The paper's methodology separates the abstract algorithm
// from the schedule mapping its work to processors — but a schedule
// that spawns fresh goroutines on every parallel call pays a hidden,
// unseparable cost: goroutine creation, stack setup and scheduler
// hand-off on every loop, which dominates at small problem sizes and
// under heavy concurrent traffic. exec amortizes that cost once per
// process: a lazily started pool of persistent workers, each with its
// own work-stealing deque, onto which all loop-level and task-level
// parallelism is dispatched.
//
// The fork/join primitive is Run(p, slot): execute slot(w) for every
// slot w in [0, p). Its two structural rules make the runtime safe for
// nested parallelism on a fixed-size pool:
//
//   - The caller participates. Run submits at most min(p-1, Procs)
//     helper tasks and then claims slots itself, so every Run completes
//     even if no pooled worker ever becomes free — a Run issued from
//     inside a pooled worker (nested parallelism) degrades gracefully
//     toward inline execution instead of deadlocking or oversubscribing.
//   - Joins wait only on started helpers. A helper that arrives after
//     all slots are claimed returns immediately; the join therefore
//     only ever waits on participants that are actively running slots,
//     and the wait-for graph follows the nesting tree (no cycles).
//
// Workers park on a condition variable when idle, so a persistent pool
// in a long-lived server costs nothing between requests. The fork/join
// state itself is recycled through a per-executor free list (and each
// worker's deque retains its capacity across steals), so the
// steady-state Run path allocates nothing; RunArena additionally hands
// every participant a worker-local scratch arena (internal/scratch)
// for slot-scoped temporaries.
//
// Layering: exec is the bottom of the runtime stack (its only
// internal dependency is scratch, for RunArena's slot arenas).
// Everything that runs in parallel dispatches onto it: par
// schedules and fork/joins, sched's work-stealing tasks, bsp's
// virtual processors, and serve's batch dispatcher. Its Occupancy
// gauge drives load shedding and admission control in serve.
package exec
