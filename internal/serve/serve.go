package serve

import (
	"errors"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/adapt"
	"repro/internal/exec"
	"repro/internal/par"
	"repro/internal/rescache"
	"repro/internal/scratch"
)

// Admission errors. All are sentinel values: callers retry (or back
// off) on ErrRejected and ErrDeadlineExceeded and give up on
// ErrClosed.
var (
	// ErrClosed reports a request submitted after Close.
	ErrClosed = errors.New("serve: server closed")
	// ErrRejected reports admission-control backpressure: the tenant's
	// queue is full (its bound halves while the executor is saturated),
	// and the request was not enqueued. The caller owns the retry
	// policy; the server never blocks admission on a full queue.
	ErrRejected = errors.New("serve: request rejected (tenant queue full)")
	// ErrDeadlineExceeded reports the deadline rung of the admission
	// ladder (Config.SLO): either the queue-depth-predicted wait at
	// the door already exceeded the request's SLO budget, so it was
	// refused before enqueueing (queueing it would only add a
	// guaranteed-late request in front of ones that can still make
	// it), or the request expired while queued and the dispatcher
	// dropped it before batching rather than spend a batch slot on an
	// answer nobody is waiting for.
	ErrDeadlineExceeded = errors.New("serve: deadline exceeded")
)

// siteBatch is the adaptive call site of the fused batch loop: the
// controller learns how many workers a batch runs on per batch-size
// class. A batch is at most maxBatch requests, far fewer than any grain
// the KindRange lattice would try, so the worker count is the only
// choice that changes anything.
var siteBatch = adapt.NewSite("serve.batch", adapt.KindWorkers)

// Config shapes one shard of a Sharded server: it is the per-shard
// template ShardedConfig embeds. The zero value batches and admits at
// the defaults, with no adaptive tuning, on the shard's own executor
// and scratch pool.
type Config struct {
	// Scratch is the pool request temporaries draw from; nil gives
	// every shard its own scratch.New(), scratch.Off disables reuse.
	Scratch *scratch.Pool
	// Adaptive, when non-nil, runs the fused batch loop under the
	// online tuning runtime (site "serve.batch").
	Adaptive *adapt.Controller
	// Workers is the parallelism of one batch — how many requests
	// execute concurrently inside the fused fork/join; <= 0 means the
	// executor's worker count.
	Workers int
	// MaxQueue bounds each tenant's admission queue; <= 0 means
	// DefaultMaxQueue. The effective bound halves while the executor
	// is saturated (occupancy at or above DefaultSaturation).
	MaxQueue int
	// PipelineCutoff is the input length at or above which a request
	// bypasses batching and runs its kernel's long-route adapter on
	// the caller's goroutine, outside the queues (admitted like any
	// other, but exempt from MaxQueue and the SLO rung: it never waits
	// on a queue); 0 means DefaultPipelineCutoff, negative disables
	// routing.
	PipelineCutoff int
	// Cache, when non-nil, is the generation-stamped result cache
	// consulted by CallBudget before any queueing: a repeat of a cacheable
	// request (same tenant, kernel and input since the tenant's last
	// BumpGeneration) is served from the cached output with zero
	// kernel work, counted in CacheHits and in neither Accepted nor
	// Completed. Shards of a Sharded server share one Cache.
	Cache *rescache.Cache
	// SLO, when positive, is the per-request deadline budget: every
	// admitted request is stamped with deadline = now + SLO, and the
	// ladder gains its deadline rung. At the door, a request whose
	// predicted wait — queue depth times the dispatcher's EWMA of
	// per-request batch service time — already exceeds the budget is
	// refused with ErrDeadlineExceeded instead of queueing to fail.
	// On the queue, a request whose deadline passes before batching
	// is dropped by the dispatcher (again ErrDeadlineExceeded)
	// without consuming a batch slot. Stamps live on the request, so
	// they survive shard migration: a thief shard honors the home
	// shard's budget whatever its own SLO setting. 0 disables
	// deadlines (every request waits as long as it takes).
	SLO time.Duration

	// stealIdle and overflow are the diffusive balancer's hooks, set
	// only by Sharded (same package). stealIdle is invoked by the
	// dispatcher when its queues are empty, before parking: it may
	// migrate requests in from an overloaded sibling shard and
	// returns how many arrived. overflow is invoked on the submitter's
	// goroutine after each enqueue with the resulting queue depth: it
	// may migrate part of a deep backlog out to an underloaded
	// sibling. A one-shard server leaves both nil and pays one nil
	// check.
	stealIdle func() int
	overflow  func(queued int)
	// executor is the shard's own worker pool, set by NewSharded:
	// batches dispatch onto it and admission control reads its
	// occupancy gauge.
	executor *exec.Executor
}

// Defaults for the Config knobs.
const (
	DefaultMaxQueue       = 256
	DefaultPipelineCutoff = 1 << 17
)

// maxBatch bounds how many requests one batch fuses, and batchWindow
// how long a batch may accumulate after its first request (awaitWindow
// closes it early once arrivals plateau). maxTenants bounds a shard's
// tenant entries: names are caller-controlled, so names past the bound
// share OverflowTenant — still served, pooling its queue bound and
// fair-share turn — instead of growing memory.
const (
	maxBatch    = 64
	batchWindow = 100 * time.Microsecond
	maxTenants  = 1024
)

// The load rungs of the admission ladder, as executor occupancy:
// above DefaultHighLoad batch worker counts are shed proportionally;
// at or above DefaultSaturation batches run serially and every
// tenant's queue bound halves.
const (
	DefaultHighLoad   = 0.75
	DefaultSaturation = 0.95
)

// OverflowTenant is the shared accounting entry that absorbs requests
// from tenant names seen after maxTenants distinct names exist.
const OverflowTenant = "(other)"

// svcStaleAfter bounds how long the door trusts the service-time EWMA
// after the last batch: past it an idle server forgets what it learned
// under the previous traffic regime rather than rejecting the first
// requests of the next one against a fossilized estimate.
const svcStaleAfter = 500 * time.Millisecond

// serveEpoch anchors svcStamp: stamps are monotonic nanoseconds since
// this process-wide instant, so they fit one atomic.Int64.
var serveEpoch = time.Now()

// svcFresh reports whether the service-time EWMA was folded recently
// enough (within svcStaleAfter of now) to predict the next wait.
func (s *shard) svcFresh(now time.Time) bool {
	return int64(now.Sub(serveEpoch))-s.svcStamp.Load() <= int64(svcStaleAfter)
}

// withDefaults resolves every "means default" value once, at
// construction, so the request path reads plain fields. A negative
// PipelineCutoff ("off") is kept, and a nil Scratch stays nil: par
// resolves it per call. Idempotent.
func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = c.executor.Procs()
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = DefaultMaxQueue
	}
	if c.PipelineCutoff == 0 {
		c.PipelineCutoff = DefaultPipelineCutoff
	}
	return c
}

// tenant is one admission queue plus its accounting. Queue links are
// intrusive through request.next; all fields except the counters are
// guarded by the server mutex.
type tenant struct {
	name             string
	head, tail       *request
	qlen             int
	accepted         atomic.Int64
	rejected         atomic.Int64
	completed        atomic.Int64
	deadlineRejected atomic.Int64
	expired          atomic.Int64
	cacheHits        atomic.Int64
}

// Stats is a snapshot of a server's admission and batching counters.
// Accepted, Rejected, DeadlineRejected and CacheHits are summed over
// the shard's tenant entries (OverflowTenant's included) and Batches
// is ParallelBatches + SerialBatches: Stats derives them, the request
// path does not count them twice.
type Stats struct {
	// Tenants is the number of distinct tenant names seen.
	Tenants int
	// Accepted counts requests admitted to a queue (or to the long
	// route); Rejected counts admission-control refusals.
	Accepted, Rejected int64
	// Completed counts requests whose execution finished (including
	// ones that finished with an error).
	Completed int64
	// Batches counts fused batches executed; BatchedRequests is the
	// total requests they carried, so BatchedRequests/Batches is the
	// mean fusion factor. MaxBatch is the largest single batch.
	Batches, BatchedRequests int64
	MaxBatch                 int64
	// ParallelBatches ran as one fused fork/join; SerialBatches ran
	// request-by-request on the dispatcher (singletons, or shed).
	ParallelBatches, SerialBatches int64
	// Shed counts batches forced serial by executor saturation, and
	// Degraded counts batches that ran parallel with proportionally
	// reduced workers under elevated load.
	Shed, Degraded int64
	// Pipelined counts long requests that ran their long-route adapter
	// on the caller's goroutine, outside the queues, instead of riding
	// a batch.
	Pipelined int64
	// DeadlineRejected counts requests refused at the door because
	// the queue-depth-predicted wait already exceeded their SLO
	// budget; Expired counts requests that outlived their deadline on
	// the queue and were dropped before batching. Both finish with
	// ErrDeadlineExceeded and neither is included in Completed, so at
	// drain Accepted == Completed + Expired.
	DeadlineRejected, Expired int64
	// CacheHits counts requests served whole from the result cache
	// (zero kernel work; in neither Accepted nor Completed).
	// CacheMisses counts cacheable requests that had to compute. Both
	// stay zero without Config.Cache.
	CacheHits, CacheMisses int64
	// MigratedIn and MigratedOut count requests the diffusive shard
	// balancer moved onto and off this shard's queues (always zero
	// with one shard). A migrated request is Accepted on its
	// home shard and Completed wherever it executed, so per-shard
	// Accepted and Completed diverge by exactly the migration flow.
	MigratedIn, MigratedOut int64
}

// TenantStats is one tenant's share of the admission counters,
// reported by Sharded.TenantStats in name order. DeadlineRejected and
// Expired follow the same home-entry accounting as the other
// counters: an expired migrated request is charged to the entry that
// admitted it.
type TenantStats struct {
	Name                          string
	Accepted, Rejected, Completed int64
	DeadlineRejected, Expired     int64
	CacheHits                     int64
}

// shard is one shard of a Sharded server: the tenant queues, their
// accounting and the batch dispatcher over the shard's own executor.
// See the package comment for the admission, batching and fairness
// semantics.
type shard struct {
	cfg Config

	mu      sync.Mutex
	cond    *sync.Cond // wakes the dispatcher when work arrives
	tenants map[string]*tenant
	active  []*tenant // tenants with a non-empty queue, round-robin order
	rr      int       // next active index the batch former pops from
	queued  int
	closed  bool
	drained chan struct{} // closed when the dispatcher exits
	// streams counts in-flight long-route requests. Add runs under
	// mu while !closed, so the Wait in Close sees every one of them.
	streams sync.WaitGroup

	reqPool sync.Pool

	// The door's counts live on the tenant entries (Stats sums them);
	// finishes are counted here as well, because a migrated request
	// finishes away from its tenant entry.
	completed atomic.Int64
	expired   atomic.Int64
	// svcNanos is the dispatcher-maintained EWMA of per-request batch
	// service time in nanoseconds — wall time of a batch over its
	// size, so batch parallelism is already folded in. It is the
	// door's wait predictor: a request entering behind q queued
	// requests waits roughly q*svcNanos. Written only by the
	// dispatcher, read by submitters; 0 until the first batch
	// completes (the door admits optimistically while cold).
	//
	// svcStamp is when svcNanos was last written, as nanoseconds since
	// serveEpoch. An estimate older than svcStaleAfter describes a
	// dead traffic regime: the door stops trusting it (admitting
	// optimistically again, as when cold), and the dispatcher's next
	// fold resets the EWMA instead of averaging across the idle gap.
	svcNanos        atomic.Int64
	svcStamp        atomic.Int64
	batchedReqs     atomic.Int64
	largestBatch    atomic.Int64
	parallelBatches atomic.Int64
	serialBatches   atomic.Int64
	shed            atomic.Int64
	degraded        atomic.Int64
	pipelined       atomic.Int64
	migratedIn      atomic.Int64
	migratedOut     atomic.Int64
	cacheMisses     atomic.Int64

	// The running parallel batch: its requests, the cursor its slots
	// claim them from, and runBatchSlot bound once, so a fused batch
	// allocates no closure. Written only by the dispatcher, which runs
	// one batch at a time.
	batch     []*request
	batchNext atomic.Int64
	batchSlot func(int)
}

// build creates a shard whose dispatcher is not running yet, so
// NewSharded can finish every shard before any dispatcher probes a
// neighbor.
func build(cfg Config) *shard {
	s := &shard{
		cfg:     cfg.withDefaults(),
		tenants: make(map[string]*tenant),
		drained: make(chan struct{}),
	}
	s.cond = sync.NewCond(&s.mu)
	s.reqPool.New = func() any { return &request{done: make(chan struct{}, 1)} }
	s.batchSlot = s.runBatchSlot
	return s
}

// start runs the dispatcher on an executor-accounted goroutine
// (exec.Executor.Go), not a pooled worker: it blocks on the queues, and
// pooled workers must not.
func (s *shard) start() { s.cfg.executor.Go(s.dispatch) }

// Close stops admission, waits for every admitted request to finish —
// queued ones through the dispatcher, long-route ones on their
// callers' goroutines — and returns, so the executor may be closed
// after it. Requests submitted after Close fail with ErrClosed.
func (s *shard) Close() {
	s.mu.Lock()
	s.closed = true
	s.cond.Broadcast()
	s.mu.Unlock()
	<-s.drained
	s.streams.Wait()
}

// Stats returns a racy snapshot of the server's counters — gauges for
// dashboards and tests, not a linearizable accounting.
func (s *shard) Stats() Stats {
	st := Stats{
		Completed:       s.completed.Load(),
		BatchedRequests: s.batchedReqs.Load(),
		MaxBatch:        s.largestBatch.Load(),
		ParallelBatches: s.parallelBatches.Load(),
		SerialBatches:   s.serialBatches.Load(),
		Shed:            s.shed.Load(),
		Degraded:        s.degraded.Load(),
		Pipelined:       s.pipelined.Load(),
		Expired:         s.expired.Load(),
		CacheMisses:     s.cacheMisses.Load(),
		MigratedIn:      s.migratedIn.Load(),
		MigratedOut:     s.migratedOut.Load(),
	}
	st.Batches = st.ParallelBatches + st.SerialBatches
	s.mu.Lock()
	st.Tenants = len(s.tenants)
	for _, t := range s.tenants {
		st.Accepted += t.accepted.Load()
		st.Rejected += t.rejected.Load()
		st.DeadlineRejected += t.deadlineRejected.Load()
		st.CacheHits += t.cacheHits.Load()
	}
	s.mu.Unlock()
	return st
}

// TenantStats returns per-tenant admission counters in name order.
func (s *shard) TenantStats() []TenantStats {
	s.mu.Lock()
	out := make([]TenantStats, 0, len(s.tenants))
	for _, t := range s.tenants {
		out = append(out, TenantStats{
			Name:             t.name,
			Accepted:         t.accepted.Load(),
			Rejected:         t.rejected.Load(),
			Completed:        t.completed.Load(),
			DeadlineRejected: t.deadlineRejected.Load(),
			Expired:          t.expired.Load(),
			CacheHits:        t.cacheHits.Load(),
		})
	}
	s.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// tenantLocked returns (creating on first sight) the named tenant.
// Once maxTenants distinct names exist, new names fold into the
// shared OverflowTenant entry so caller-controlled name cardinality
// cannot grow server memory without bound.
func (s *shard) tenantLocked(name string) *tenant {
	t := s.tenants[name]
	if t != nil {
		return t
	}
	if len(s.tenants) >= maxTenants {
		name = OverflowTenant
		if t = s.tenants[name]; t != nil {
			return t
		}
	}
	t = &tenant{name: name}
	s.tenants[name] = t
	return t
}

// doorLocked is the door itself: a closed server refuses, anything
// else resolves to its (possibly folded) tenant entry.
func (s *shard) doorLocked(name string) (*tenant, error) {
	if s.closed {
		return nil, ErrClosed
	}
	return s.tenantLocked(name), nil
}

// admit is the one way into the server, for all three routes. It
// stamps the accounting identity — folding rewrites the name (t.name is
// OverflowTenant when maxTenants bounded it), and both stamps must
// survive migration: the name keeps a thief shard's migrateIn from
// resurrecting a folded tenant as a fresh per-name entry, and acct
// keeps the completion credit on the entry that counted the
// acceptance, so merged TenantStats balance exactly. A long-route
// request never waits on a queue, so it skips the queue rungs and is
// instead counted in flight, under the lock Close takes, until finish.
func (s *shard) admit(r *request) error {
	s.mu.Lock()
	t, err := s.doorLocked(r.tenantName)
	if err == nil && !r.stream {
		err = s.queueRungsLocked(t, r)
	}
	if err != nil {
		s.mu.Unlock()
		return err
	}
	r.tenantName = t.name
	r.acct = t
	t.accepted.Add(1)
	if r.stream {
		s.streams.Add(1)
		s.pipelined.Add(1)
		s.mu.Unlock()
		return nil
	}
	s.enqueueLocked(t, r)
	s.cond.Signal()
	queued := s.queued
	s.mu.Unlock()

	// Diffusion's push edge: a submitter that just deepened the
	// backlog is exactly the goroutine that should pay to spread it.
	// The hook piggybacks on this existing event, so no balancer
	// goroutine or ticker exists anywhere.
	if ov := s.cfg.overflow; ov != nil {
		ov(queued)
	}
	return nil
}

// queueRungsLocked is the part of the admission ladder that guards the
// queues: the tenant's queue bound, then the deadline rung (which also
// stamps r.deadline). Each refusal is counted here.
func (s *shard) queueRungsLocked(t *tenant, r *request) error {
	bound := s.cfg.MaxQueue
	if s.cfg.executor.Occupancy() >= DefaultSaturation {
		// Backpressure rises with saturation: a busy executor halves
		// every tenant's queue bound, so rejection starts before the
		// backlog (and its latency) doubles.
		bound = max(1, bound/2)
	}
	if t.qlen >= bound {
		t.rejected.Add(1)
		return ErrRejected
	}
	slo := s.cfg.SLO
	if r.budget > 0 {
		// A per-request budget (stamped by the wire front door from
		// frame metadata) overrides the server-wide SLO: the client's
		// own deadline governs its request. Budget-less requests fall
		// back to Config.SLO, so in-process callers see no change.
		slo = r.budget
	}
	if slo > 0 {
		// Deadline rung: predict this request's completion as (queued
		// ahead + itself) times the EWMA of per-request batch service
		// time. A request that already cannot make its budget is
		// refused at the door — queueing it would burn queue bound and
		// dispatcher time on an answer that is late by construction.
		// The prediction only counts while fresh: after an idle gap the
		// EWMA describes traffic that no longer exists, and a cold-
		// start-like first arrival must be admitted, not rejected
		// against it.
		now := time.Now()
		if per := s.svcNanos.Load(); per > 0 && s.svcFresh(now) && int64(s.queued+1)*per > int64(slo) {
			t.deadlineRejected.Add(1)
			return ErrDeadlineExceeded
		}
		r.deadline = now.Add(slo)
	}
	return nil
}

// enqueueLocked links r at the tail of tenant entry t's FIFO — the one
// place a request joins a queue, for admission and migrateIn alike.
func (s *shard) enqueueLocked(t *tenant, r *request) {
	r.next = nil
	if t.tail == nil {
		t.head = r
		s.active = append(s.active, t) // empty -> non-empty: join the ring
	} else {
		t.tail.next = r
	}
	t.tail = r
	t.qlen++
	s.queued++
}

// popLocked removes and returns the oldest request of the tenant whose
// round-robin turn it is and moves the turn on — the one place a
// request leaves a queue, for batch formation and migrateOut alike. A
// tenant whose queue empties leaves the ring, which already puts its
// successor under the cursor. The caller checks s.queued > 0.
func (s *shard) popLocked() *request {
	if s.rr >= len(s.active) {
		s.rr = 0
	}
	t := s.active[s.rr]
	r := t.head
	t.head = r.next
	if t.head == nil {
		t.tail = nil
		s.active = append(s.active[:s.rr], s.active[s.rr+1:]...)
	} else {
		s.rr++ // tenant still queued: move past it this round
	}
	r.next = nil
	t.qlen--
	s.queued--
	return r
}

// finish is the one way out: it hands r its error, credits Expired (a
// lapsed deadline) or Completed (everything else, errors included) to
// the entry that admitted r — its home shard's tenant when migrated —
// and to the server that finished it, and signals the waiter. It only
// touches atomics and r's own fields, so batch formation calls it with
// s.mu held.
func (s *shard) finish(r *request, err error) {
	r.err = err
	if err == ErrDeadlineExceeded {
		r.acct.expired.Add(1)
		s.expired.Add(1)
	} else {
		r.acct.completed.Add(1)
		s.completed.Add(1)
	}
	if r.stream {
		s.streams.Done()
	}
	r.done <- struct{}{}
}

// queueDepth returns the current number of queued requests — the
// load signal the diffusive balancer compares across shards.
func (s *shard) queueDepth() int {
	s.mu.Lock()
	q := s.queued
	s.mu.Unlock()
	return q
}

// migrateOut pops up to max queued requests off s's queues — oldest
// first, round-robin across tenants like batch formation, so a
// migration slice has the same fair-share mix a batch would — and
// appends them to buf. The popped requests belong exclusively to the
// caller until it hands them to another shard's migrateIn: they are on
// no queue, so neither dispatcher can see them, which is what makes a
// migration exactly-once by construction.
func (s *shard) migrateOut(buf []*request, max int) []*request {
	n := 0
	s.mu.Lock()
	for ; n < max && s.queued > 0; n++ {
		buf = append(buf, s.popLocked())
	}
	s.mu.Unlock()
	s.migratedOut.Add(int64(n))
	return buf
}

// migrateIn enqueues already-admitted requests from another shard onto
// s's queues, bypassing the admission bound (rejecting work a sibling
// admitted would turn a load-balancing move into a spurious error).
// Each request's queue entry is re-homed onto s's tenant entry of the
// admission-stamped name (OverflowTenant for requests folded at their
// home shard, so folded tenants are never resurrected by name here),
// while r.acct still points at the home shard's entry — completion is
// credited where acceptance was counted, keeping merged TenantStats
// balanced. If s has already been closed — a migration racing a
// shutdown — the requests are executed inline on the caller's
// goroutine instead: a migrated request is never lost and never
// spuriously rejected.
func (s *shard) migrateIn(rs []*request) {
	if len(rs) == 0 {
		return
	}
	s.migratedIn.Add(int64(len(rs)))
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		now := time.Now()
		for _, r := range rs {
			if !r.deadline.IsZero() && now.After(r.deadline) {
				s.finish(r, ErrDeadlineExceeded)
			} else {
				s.runOne(r)
			}
		}
		return
	}
	for _, r := range rs {
		s.enqueueLocked(s.tenantLocked(r.tenantName), r)
	}
	s.cond.Signal()
	s.mu.Unlock()
}

// formBatchLocked pops up to maxBatch requests, one per tenant per
// round-robin turn, starting where the previous batch left off. This
// is the fair-share mechanism: a tenant with one queued request is
// served within one turn of the ring no matter how deep any other
// tenant's backlog is. Requests whose deadline passed while queued
// are expired here instead of batched: they finish immediately with
// ErrDeadlineExceeded and do not consume a batch slot, so an expired
// backlog drains at pointer-pop speed rather than at service speed.
// The check reads the request's own stamp, not cfg.SLO, so a migrated
// request's home-shard budget is honored on whichever shard forms the
// batch; the time.Now is taken lazily so deadline-free servers never
// pay for it.
func (s *shard) formBatchLocked(batch []*request) []*request {
	var now time.Time
	for len(batch) < maxBatch && s.queued > 0 {
		r := s.popLocked()
		if !r.deadline.IsZero() {
			if now.IsZero() {
				now = time.Now()
			}
			if now.After(r.deadline) {
				s.finish(r, ErrDeadlineExceeded)
				continue
			}
		}
		batch = append(batch, r)
	}
	return batch
}

// awaitWindow lets a batch accumulate: it returns once the queue
// reaches a full batch, arrivals plateau (a scheduling round added
// nothing, so no producer is ready to enqueue), or the window
// expires. On a single-P runtime the Gosched loop runs every ready
// producer before re-reading the queue, which makes the plateau check
// exact there and merely conservative elsewhere.
func (s *shard) awaitWindow() {
	deadline := time.Now().Add(batchWindow)
	prev := -1
	for {
		s.mu.Lock()
		q, closed := s.queued, s.closed
		s.mu.Unlock()
		if closed || q >= maxBatch || q == prev || time.Now().After(deadline) {
			return
		}
		prev = q
		runtime.Gosched()
	}
}

// dispatch is the batch-forming loop. One dispatcher per server: batch
// formation is serial (it is cheap — pointer pops under one mutex),
// execution is where the parallelism is.
func (s *shard) dispatch() {
	defer close(s.drained)
	batch := make([]*request, 0, maxBatch)
	for {
		s.mu.Lock()
		for s.queued == 0 && !s.closed {
			// Diffusion's pull edge: an idle dispatcher probes its
			// sibling shards before parking. A successful steal leaves
			// requests on our queues (the loop condition re-checks); a
			// failed one parks until a local submit or a sibling's
			// push migration signals the cond.
			if steal := s.cfg.stealIdle; steal != nil {
				s.mu.Unlock()
				migrated := steal()
				s.mu.Lock()
				if migrated > 0 || s.queued > 0 || s.closed {
					// A successful steal leaves requests on our
					// queues — but so can a local submit, a sibling's
					// push migration, or a Close that ran while the
					// lock was dropped for the probe. Their
					// cond.Signal found no waiter and was a no-op, so
					// falling into Wait here would sleep on a wakeup
					// that already happened; re-check the predicate
					// instead.
					continue
				}
			}
			s.cond.Wait()
		}
		if s.queued == 0 && s.closed {
			s.mu.Unlock()
			return
		}
		s.mu.Unlock()
		s.awaitWindow()
		s.mu.Lock()
		batch = s.formBatchLocked(batch[:0])
		s.mu.Unlock()
		if len(batch) > 0 {
			s.execute(batch)
		}
	}
}

// execute runs one batch under the admission ladder: fused parallel
// loop when the executor has headroom, proportionally fewer workers
// under elevated load, serial on the dispatcher at saturation.
func (s *shard) execute(batch []*request) {
	n := len(batch)
	s.batchedReqs.Add(int64(n))
	for {
		cur := s.largestBatch.Load()
		if int64(n) <= cur || s.largestBatch.CompareAndSwap(cur, int64(n)) {
			break
		}
	}
	load := s.cfg.executor.Occupancy()
	workers := s.cfg.Workers
	if load >= DefaultSaturation {
		s.shed.Add(1)
		workers = 1
	} else if load >= DefaultHighLoad {
		s.degraded.Add(1)
		if scaled := int(float64(workers)*(1-load) + 0.5); scaled < workers {
			workers = max(1, scaled)
		}
	}
	start := time.Now()
	opts, m := par.BeginAdaptive(siteBatch, n, par.Options{Procs: workers, Executor: s.cfg.executor, Adaptive: s.cfg.Adaptive})
	if p := min(opts.Procs, n); p <= 1 {
		s.serialBatches.Add(1)
		for _, r := range batch {
			s.runOne(r)
		}
	} else {
		s.parallelBatches.Add(1)
		s.batch = batch
		s.batchNext.Store(0)
		s.cfg.executor.Run(p, s.batchSlot)
	}
	m.Done()
	// Fold this batch's per-request service time into the door's wait
	// predictor. Single writer (the dispatcher), so a plain
	// load/store EWMA is race-free; alpha 1/4 forgets a shed or
	// degraded batch within a few normal ones.
	per := int64(time.Since(start)) / int64(n)
	now := int64(time.Since(serveEpoch))
	if old := s.svcNanos.Load(); old == 0 || now-s.svcStamp.Load() > int64(svcStaleAfter) {
		// Cold, or the last fold is from before an idle gap: the old
		// EWMA describes a dead regime, so restart from this batch
		// instead of dragging fossil history into the average.
		s.svcNanos.Store(per)
	} else {
		s.svcNanos.Store(old + (per-old)/4)
	}
	s.svcStamp.Store(now)
}

// runBatchSlot is one worker slot of a parallel batch: it claims
// requests off the shared cursor until the batch runs out, so skewed
// request costs balance across slots.
func (s *shard) runBatchSlot(int) {
	for {
		i := int(s.batchNext.Add(1)) - 1
		if i >= len(s.batch) {
			return
		}
		s.runOne(s.batch[i])
	}
}
