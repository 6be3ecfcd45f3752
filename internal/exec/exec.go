package exec

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/rng"
	"repro/internal/scratch"
)

// Task is a unit of work submitted to the pool.
type Task func()

// Executor is a persistent worker pool. The zero value is not usable;
// create one with New, or share the process-wide pool via Default.
type Executor struct {
	procs int

	startOnce sync.Once
	started   atomic.Bool // workers launched (Occupancy reads 0 before)
	workers   []*worker
	submitIdx atomic.Uint64 // round-robin target for external submits

	// pending counts tasks pushed but not yet popped; workers re-check
	// it against idle under mu before parking (Dekker pairing with
	// Submit) so wakeups are never lost.
	pending atomic.Int64
	idle    atomic.Int32
	// running counts pooled workers currently executing a task (not
	// merely awake and probing for one) — the numerator of Occupancy.
	running atomic.Int32

	mu     sync.Mutex
	cond   *sync.Cond
	closed bool
	// down mirrors closed outside the lock so Submit can reject tasks
	// on the fast path: enqueueing onto exited workers would lose the
	// task forever and corrupt the pending gauge.
	down atomic.Bool
	wg   sync.WaitGroup // live pooled workers, for Close

	// Observability gauges/counters.
	steals   atomic.Int64
	attempts atomic.Int64
	blocking atomic.Int64 // dedicated goroutines live via Go

	// Smoothed occupancy (OccupancyEWMA): the float64 bits of the
	// last folded value plus its UnixNano stamp. Reader-updated — the
	// hot task path never touches them.
	occEWMA  atomic.Uint64
	occStamp atomic.Int64

	// Recycled fork/join states (see runState). An explicit free list
	// rather than a sync.Pool: states are reclaimed on whatever worker
	// deposited the last token, and sync.Pool's per-P private slots
	// would hide those from the submitting goroutine (and drop them at
	// GC), leaving Run allocating about half the time.
	freeMu  sync.Mutex
	freeRun *runState
}

type worker struct {
	e   *Executor
	id  int
	dq  Deque[Task]
	rnd *rng.Rand
}

// New creates an executor with procs persistent workers (<= 0 means
// runtime.GOMAXPROCS(0)). Workers start lazily on first use.
func New(procs int) *Executor {
	if procs <= 0 {
		procs = runtime.GOMAXPROCS(0)
	}
	e := &Executor{procs: procs}
	e.cond = sync.NewCond(&e.mu)
	e.workers = make([]*worker, procs)
	for i := range e.workers {
		e.workers[i] = &worker{e: e, id: i, rnd: rng.New(uint64(0x5eed + i))}
	}
	return e
}

var (
	defaultOnce sync.Once
	defaultExec *Executor
)

// Default returns the lazily created process-wide executor, sized to
// GOMAXPROCS at first use (override with the REPRO_EXEC_PROCS
// environment variable; see README.md). It must never be closed.
func Default() *Executor {
	defaultOnce.Do(func() {
		defaultExec = New(procsFromEnv())
	})
	return defaultExec
}

// procsFromEnv parses REPRO_EXEC_PROCS. Invalid values (non-numeric,
// zero, negative) are rejected loudly on stderr rather than silently
// ignored — a misspelled override that quietly falls back to
// GOMAXPROCS is exactly the kind of unobservable configuration drift
// the experiment harness exists to rule out.
func procsFromEnv() int {
	s := os.Getenv("REPRO_EXEC_PROCS")
	if s == "" {
		return 0
	}
	v, err := strconv.Atoi(s)
	if err != nil || v <= 0 {
		fmt.Fprintf(os.Stderr,
			"exec: ignoring invalid REPRO_EXEC_PROCS=%q (want a positive integer); using GOMAXPROCS\n", s)
		return 0
	}
	return v
}

// Procs returns the number of pooled workers.
func (e *Executor) Procs() int { return e.procs }

// Steals returns the cumulative number of successful cross-worker
// steals (observability; monotone over the executor's lifetime).
func (e *Executor) Steals() int64 { return e.steals.Load() }

// StealAttempts returns the cumulative number of steal probes.
func (e *Executor) StealAttempts() int64 { return e.attempts.Load() }

// BlockingGoroutines returns the number of dedicated goroutines
// currently live via Go (e.g. BSP virtual processors).
func (e *Executor) BlockingGoroutines() int64 { return e.blocking.Load() }

// Occupancy returns the fraction of pooled workers currently
// executing tasks: 0 is an idle (or not yet started)
// pool, 1 is every worker busy. Workers that are awake but merely
// probing for work do not count, and neither do queued-but-unstarted
// tasks — fork/join helpers that lost the race to their Run's own
// caller linger on the deques and run as no-ops, so the queue length
// says nothing about load (conspicuously on few-core machines). It is
// the gauge serve's admission ladder consults to shed parallelism
// under concurrent traffic — a cheap, racy snapshot, deliberately:
// the reader wants a trend, not a linearizable count.
func (e *Executor) Occupancy() float64 {
	if !e.started.Load() {
		return 0
	}
	return float64(e.running.Load()) / float64(e.procs)
}

// occTau is the time constant of OccupancyEWMA: load older than a few
// tau has essentially no weight. A couple of milliseconds spans many
// request-sized tasks (so momentary gaps between batches do not read
// as idleness) while still tracking a real load shift quickly.
const occTau = float64(2 * time.Millisecond)

// occFloor is the quiescence floor: a folded value below it reads as
// exactly 0, so a parked pool's EWMA is a clean zero predicate instead
// of an asymptotically decaying residue.
const occFloor = 1e-3

// OccupancyEWMA returns an exponentially smoothed Occupancy with time
// constant occTau. It is updated by its readers — each call folds the
// instantaneous gauge in, weighted by the time since the previous
// fold — so the task hot path pays nothing for it. Like Occupancy it
// is a racy gauge: concurrent folds may each land, which only jitters
// the smoothing, never the steady state. A pool that has been parked
// for several tau reads exactly 0 (see occFloor). This is the signal
// the diffusive shard balancer (internal/serve) compares across
// shards: smoothing gives it hysteresis, so one idle probe between
// two batches does not look like an idle shard.
func (e *Executor) OccupancyEWMA() float64 {
	cur := e.Occupancy()
	now := time.Now().UnixNano()
	last := e.occStamp.Swap(now)
	var w float64
	if last > 0 && now > last {
		w = math.Exp(-float64(now-last) / occTau)
	}
	next := w*math.Float64frombits(e.occEWMA.Load()) + (1-w)*cur
	if next < occFloor {
		next = 0
	}
	e.occEWMA.Store(math.Float64bits(next))
	return next
}

// start launches the persistent workers (idempotent).
func (e *Executor) start() {
	e.startOnce.Do(func() {
		e.started.Store(true)
		e.wg.Add(len(e.workers))
		for _, w := range e.workers {
			go func(w *worker) {
				defer e.wg.Done()
				w.loop()
			}(w)
		}
	})
}

// Close stops the persistent workers and waits for them to exit.
// Queued tasks that have not started are dropped. Closing the Default
// executor is a programming error; Close exists for dedicated pools in
// tests and short-lived tools.
func (e *Executor) Close() {
	e.down.Store(true)
	e.mu.Lock()
	e.closed = true
	e.cond.Broadcast()
	e.mu.Unlock()
	e.wg.Wait()
}

// Submit enqueues t for asynchronous execution on the pool. Submitting
// to a closed executor panics: the workers have exited, so the task
// would sit on a dead deque forever while the pending gauge silently
// corrupts. Tasks must not block indefinitely on other queued tasks
// starting — pooled workers are a fixed resource; use Go for tasks
// that block (e.g. on barriers).
func (e *Executor) Submit(t Task) {
	if e.down.Load() {
		panic("exec: Submit on closed Executor")
	}
	e.start()
	w := e.workers[e.submitIdx.Add(1)%uint64(len(e.workers))]
	w.dq.PushBottom(t)
	e.pending.Add(1)
	// Re-check after the enqueue: a Close that raced past the gate
	// above still panics here instead of silently stranding the task
	// on an exited worker's deque. (A Close that begins strictly after
	// this check drops the queued task under Close's documented
	// semantics, like any other not-yet-started task.)
	if e.down.Load() {
		panic("exec: Submit on closed Executor")
	}
	if e.idle.Load() > 0 {
		e.mu.Lock()
		e.cond.Signal()
		e.mu.Unlock()
	}
}

// Go runs fn on a dedicated (non-pooled) goroutine. It exists for work
// that blocks on coordination with its siblings — the BSP simulator's
// virtual processors park on a superstep barrier, so running them on
// the fixed-size pool would deadlock; routing them through the
// executor keeps them observable (BlockingGoroutines) and gives
// long-lived servers one place to account for all parallel activity.
func (e *Executor) Go(fn func()) {
	e.blocking.Add(1)
	go func() {
		defer e.blocking.Add(-1)
		fn()
	}()
}

func (w *worker) loop() {
	e := w.e
	for {
		t, ok := w.dq.PopBottom()
		if !ok {
			t, ok = w.stealAny()
		}
		if ok {
			e.pending.Add(-1)
			e.running.Add(1)
			t()
			e.running.Add(-1)
			continue
		}
		// Nothing runnable: park. The idle increment must precede the
		// pending re-check (and Submit's pending increment precedes its
		// idle check), so at least one side always observes the other.
		e.mu.Lock()
		if e.closed {
			e.mu.Unlock()
			return
		}
		e.idle.Add(1)
		if e.pending.Load() > 0 {
			e.idle.Add(-1)
			e.mu.Unlock()
			continue
		}
		e.cond.Wait()
		e.idle.Add(-1)
		closed := e.closed
		e.mu.Unlock()
		if closed {
			return
		}
	}
}

// stealAny probes the other workers' deques from a random start.
func (w *worker) stealAny() (Task, bool) {
	e := w.e
	return StealScan(func(i int) *Deque[Task] { return &e.workers[i].dq },
		len(e.workers), w.id, w.rnd, &e.attempts, &e.steals)
}

// runState is the join state of one Run: a slot-claim cursor plus a
// count of participants actively inside the slot loop. The caller
// joins by waiting for active to drain after exhausting the cursor
// itself, so only started helpers are ever waited on.
//
// runStates are recycled through runPool so the steady-state fork/join
// path allocates nothing. Recycling is only safe once every submitted
// helper task has run (even trivially): a helper still sitting on a
// deque holds st.task and would otherwise participate in whatever Run
// the recycled state is reused for. Quiescence is detected with
// reclaim tokens: each of the submitted helpers and the caller's own
// participate deposits one token on exit, and the joiner deposits one
// more after the join — whoever deposits the last token (and only that
// party) recycles the state, so a state is never reused while any
// goroutine still holds a reference.
type runState struct {
	slot func(w int)
	// slotA/sp select the arena flavor (RunArena): each participant
	// acquires a worker-local scratch arena for the slots it runs.
	slotA func(w int, a *scratch.Arena)
	sp    *scratch.Pool
	p     int64

	next atomic.Int64 // next unclaimed slot

	mu     sync.Mutex
	cond   sync.Cond
	active int // participants inside the slot loop

	task      Task         // st.participate as a Task, built once per runState
	submitted int64        // helpers submitted for the current Run
	tokens    atomic.Int64 // deposited reclaim tokens; full at submitted+2

	e        *Executor // home executor, for the free list
	freeNext *runState
}

// getRunState pops a recycled fork/join state or builds a fresh one.
// The free list's high-water mark is the executor's peak number of
// concurrent (including nested) Runs, so it stays small.
func (e *Executor) getRunState() *runState {
	e.freeMu.Lock()
	st := e.freeRun
	if st != nil {
		e.freeRun = st.freeNext
		st.freeNext = nil
	}
	e.freeMu.Unlock()
	if st == nil {
		st = &runState{e: e}
		st.cond.L = &st.mu
		st.task = st.participate
	}
	return st
}

// reclaim resets a fully quiesced runState and returns it to its
// executor's free list.
func (st *runState) reclaim() {
	st.slot = nil
	st.slotA = nil
	st.sp = nil
	e := st.e
	e.freeMu.Lock()
	st.freeNext = e.freeRun
	e.freeRun = st
	e.freeMu.Unlock()
}

// Run executes slot(w) for every w in [0, p), using the calling
// goroutine plus up to min(p-1, Procs) pooled helpers, and returns when
// every slot has completed. Slots must not block waiting for each
// other's *start* (they may freely synchronize on each other's
// side effects going forward, e.g. claim work from a shared cursor):
// when the pool is busy, a single participant may run all p slots
// sequentially. Run may be called concurrently and from inside slots
// of other Runs (nested parallelism); see the package comment for why
// this cannot deadlock.
func (e *Executor) Run(p int, slot func(w int)) {
	if p <= 0 {
		return
	}
	if p == 1 {
		slot(0)
		return
	}
	st := e.getRunState()
	st.slot = slot
	e.runCommon(p, st)
}

// RunArena is Run with a worker-local scratch arena handed to every
// slot. Each participant (pooled helper or the caller) acquires one
// arena from sp (nil means scratch.Default()) and releases it after
// its last slot, so slot bodies can Make temporaries with no
// synchronization and no per-call allocation. Arena buffers are
// slot-scoped: they must not outlive the participant — anything that
// must survive the Run belongs to a caller-side arena instead (the
// generation stamps turn most violations into panics).
func (e *Executor) RunArena(p int, sp *scratch.Pool, slot func(w int, a *scratch.Arena)) {
	if p <= 0 {
		return
	}
	if p == 1 {
		a := scratch.AcquireArena(sp)
		defer a.Release()
		slot(0, a)
		return
	}
	st := e.getRunState()
	st.slotA = slot
	st.sp = sp
	e.runCommon(p, st)
}

func (e *Executor) runCommon(p int, st *runState) {
	st.p = int64(p)
	st.next.Store(0)
	st.tokens.Store(0)
	helpers := p - 1
	if helpers > e.procs {
		helpers = e.procs
	}
	st.submitted = int64(helpers)
	for i := 0; i < helpers; i++ {
		e.Submit(st.task)
	}
	st.participate()
	// The caller exhausted the slot cursor above; wait for helpers that
	// started before exhaustion to finish their slots.
	st.mu.Lock()
	for st.active > 0 {
		st.cond.Wait()
	}
	st.mu.Unlock()
	// Deposit the joiner's token. If helpers are still queued (they
	// arrived after the slots were exhausted, or have not been popped
	// yet), the last of them recycles the state instead.
	st.deposit()
}

// deposit adds one reclaim token; the depositor of the last token
// recycles the state. Tokens are deposited strictly after their owner
// is done touching st, so a full count proves quiescence. need must be
// read before the increment: a non-final deposit releases our claim on
// st, after which the state may already belong to another Run.
func (st *runState) deposit() {
	need := st.submitted + 2
	if st.tokens.Add(1) == need {
		st.reclaim()
	}
}

// participate claims and runs slots until none remain. Late arrivals
// (all slots already claimed) return without registering, so the join
// never waits on a helper that has not started.
func (st *runState) participate() {
	defer st.deposit()
	if st.next.Load() >= st.p {
		return
	}
	st.mu.Lock()
	st.active++
	st.mu.Unlock()
	defer func() {
		st.mu.Lock()
		st.active--
		if st.active == 0 {
			st.cond.Broadcast()
		}
		st.mu.Unlock()
	}()
	if st.slotA != nil {
		a := scratch.AcquireArena(st.sp)
		defer a.Release()
		for {
			w := st.next.Add(1) - 1
			if w >= st.p {
				return
			}
			st.slotA(int(w), a)
		}
	}
	for {
		w := st.next.Add(1) - 1
		if w >= st.p {
			return
		}
		st.slot(int(w))
	}
}
