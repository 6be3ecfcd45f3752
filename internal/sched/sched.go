package sched

import (
	"sync"
	"sync/atomic"

	"repro/internal/exec"
	"repro/internal/rng"
)

// Task is a unit of work. Tasks may spawn further tasks through the
// *Worker passed to them.
type Task func(w *Worker)

// Pool is a work-stealing scheduler with a fixed number of worker
// slots. Create with NewPoolOn; a Pool may execute many rounds of work
// via Run.
type Pool struct {
	exec  *exec.Executor
	slots []*slot
	procs int

	// Termination detection: count of in-flight (queued or executing)
	// tasks. When it reaches zero, the round is over.
	inflight atomic.Int64

	// Lanes with nothing to run park on cond rather than spinning —
	// lanes occupy workers of a (possibly shared) fixed-size executor,
	// so busy-waiting would burn CPU other traffic needs. queued counts
	// pushed-but-not-popped tasks and idle counts parked lanes; Spawn's
	// queued-then-idle accesses pair with the lane's idle-then-queued
	// re-check (as in exec.Submit) so wakeups are never lost.
	queued atomic.Int64
	idle   atomic.Int32
	mu     sync.Mutex
	cond   *sync.Cond

	// Steal statistics for the experiment harness.
	steals   atomic.Int64
	attempts atomic.Int64
}

// slot is one scheduler lane: a deque plus the victim-selection rng of
// whichever participant claims the lane during a Run. A slot is owned
// by exactly one participant per round, so rnd needs no locking.
type slot struct {
	deque exec.Deque[Task]
	rnd   *rng.Rand
}

// Worker is one scheduler lane's context during a Run. Tasks receive
// their worker so spawns go to the local deque without synchronization
// on the happy path.
type Worker struct {
	pool *Pool
	id   int
}

// NewPoolOn creates a scheduler whose lanes run on executor e (nil
// means exec.Default()). Long-lived servers can pin a dedicated
// executor so task-parallel work is isolated from other traffic.
func NewPoolOn(e *exec.Executor, procs int) *Pool {
	if procs <= 0 {
		procs = 1
	}
	if e == nil {
		e = exec.Default()
	}
	p := &Pool{exec: e, procs: procs}
	p.cond = sync.NewCond(&p.mu)
	p.slots = make([]*slot, procs)
	for i := range p.slots {
		p.slots[i] = &slot{rnd: rng.New(uint64(0x5eed + i))}
	}
	return p
}

// Procs returns the number of worker lanes.
func (p *Pool) Procs() int { return p.procs }

// Steals returns the number of successful steals in the last Run.
func (p *Pool) Steals() int64 { return p.steals.Load() }

// StealAttempts returns the number of steal attempts in the last Run.
func (p *Pool) StealAttempts() int64 { return p.attempts.Load() }

// Spawn enqueues a child task on this worker's own deque.
func (w *Worker) Spawn(t Task) {
	p := w.pool
	p.inflight.Add(1)
	p.slots[w.id].deque.PushBottom(t)
	p.queued.Add(1)
	if p.idle.Load() > 0 {
		p.mu.Lock()
		p.cond.Signal()
		p.mu.Unlock()
	}
}

// Run executes root and everything it transitively spawns, returning
// when all tasks have completed. Run must not be called concurrently
// with itself on the same Pool (use separate Pools for concurrent
// rounds; they may share one executor).
func (p *Pool) Run(root Task) {
	p.steals.Store(0)
	p.attempts.Store(0)
	p.inflight.Store(1)
	p.slots[0].deque.PushBottom(root)
	p.queued.Store(1)
	p.exec.Run(p.procs, p.lane)
}

// lane is the scheduling loop for lane w: run local work; steal when
// empty; park when there is nothing to steal; exit when the round's
// inflight count reaches zero. It runs as one slot of an exec.Run, so
// the Run caller drives lane 0 itself and lanes whose helper never
// gets a pooled worker are simply covered by the participants that did
// start — the round terminates either way.
func (p *Pool) lane(id int) {
	s := p.slots[id]
	me := &Worker{pool: p, id: id}
	for {
		// Drain the local deque.
		for {
			t, ok := s.deque.PopBottom()
			if !ok {
				break
			}
			p.queued.Add(-1)
			p.runTask(t, me)
		}
		// Local deque empty: try to steal.
		if p.inflight.Load() == 0 {
			return
		}
		if t, ok := p.steal(id, s); ok {
			p.runTask(t, me)
			continue
		}
		// Nothing to steal right now: park until a Spawn or the end of
		// the round wakes us. Lanes occupy pooled workers, so spinning
		// here would burn CPU that concurrent loop-parallel traffic on
		// the same executor needs.
		p.mu.Lock()
		p.idle.Add(1)
		if p.queued.Load() > 0 || p.inflight.Load() == 0 {
			p.idle.Add(-1)
			p.mu.Unlock()
			continue
		}
		p.cond.Wait()
		p.idle.Add(-1)
		p.mu.Unlock()
	}
}

// runTask executes t on lane me and retires it; the task that drains
// inflight to zero ends the round and wakes every parked lane so they
// can observe termination and return.
func (p *Pool) runTask(t Task, me *Worker) {
	t(me)
	if p.inflight.Add(-1) == 0 {
		p.mu.Lock()
		p.cond.Broadcast()
		p.mu.Unlock()
	}
}

// steal picks random victims until one yields a task or all are empty.
func (p *Pool) steal(self int, s *slot) (Task, bool) {
	t, ok := exec.StealScan(func(i int) *exec.Deque[Task] { return &p.slots[i].deque },
		len(p.slots), self, s.rnd, &p.attempts, &p.steals)
	if ok {
		p.queued.Add(-1)
	}
	return t, ok
}
