package serve

import (
	"fmt"
	"time"

	"repro/internal/kernel"
	"repro/internal/par"
	"repro/internal/rescache"
)

// request is one queued unit of work: a kernel descriptor plus its
// argument record. Instances are pooled (reqPool) and reused with
// their done channel; every field except done is overwritten on
// reuse.
type request struct {
	k          *kernel.Kernel
	tenantName string   // accounting name, stamped at admission (folded names become OverflowTenant)
	acct       *tenant  // accounting entry on the admitting server; finish credits it
	next       *request // intrusive tenant-queue link

	// deadline is the SLO stamp set at admission (zero when the
	// admitting server has no SLO). It rides the struct through
	// migration, so a thief shard enforces the home shard's budget.
	deadline time.Time
	// budget is a per-request deadline budget overriding Config.SLO
	// when positive — the wire front door sets it from frame metadata
	// so a remote client's own SLO governs its request. Only the
	// absolute deadline stamp derived from it rides migration.
	budget time.Duration

	args kernel.Args
	// delta rides incremental requests (CallDeltaBudget): when isDelta is
	// set, the batch slot runs the kernel's delta adapter over (args,
	// delta) instead of a full Run.
	delta   kernel.Delta
	isDelta bool
	// stream marks the long route: the request is admitted like any
	// other but never queued — its caller runs k.Stream, the kernel's
	// long-route adapter, itself.
	stream bool
	err    error
	done   chan struct{} // cap 1; signaled exactly once per execution
}

// getRequest takes a pooled request and stamps its identity fields.
func (s *shard) getRequest(k *kernel.Kernel, tenant string, a *kernel.Args) *request {
	r := s.reqPool.Get().(*request)
	*r = request{k: k, tenantName: tenant, args: *a, done: r.done}
	return r
}

// putRequest returns a request to the pool, dropping the payload
// references so pooled requests never pin caller slices.
func (s *shard) putRequest(r *request) {
	*r = request{done: r.done}
	s.reqPool.Put(r)
}

// serialOpts are the Options a request's kernel runs under inside a
// batch slot: strictly serial (the batch loop owns the parallelism —
// one fused fork/join over requests, not one per request) but drawing
// temporaries from the server's scratch pool like any kernel call.
func (s *shard) serialOpts() par.Options {
	return par.Options{
		Procs:        1,
		SerialCutoff: 1 << 62,
		Executor:     s.cfg.executor,
		Scratch:      s.cfg.Scratch,
	}
}

// runOne executes one admitted request — serially inside its batch
// slot, or through the kernel's long-route adapter on its caller's
// goroutine when marked stream — and finishes it. Kernel panics on this
// goroutine (a bucket function out of range, a malformed graph) are
// confined to the request: they become its error instead of killing a
// pooled worker or the caller. That covers every long request on a
// 1-worker shard, whose adapter is the kernel's serial leaf run right
// here. A panic on another goroutine — a pooled worker of a wider long
// sort or scan — is out of reach of this recover and stays out of
// scope.
func (s *shard) runOne(r *request) {
	var err error
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("serve: request panicked: %v", p)
		}
		s.finish(r, err)
	}()
	switch {
	case r.stream:
		err = r.k.Stream(&r.args, s.longOpts())
	case r.isDelta:
		err = r.k.RunDelta(&r.args, &r.delta, s.serialOpts())
	default:
		r.k.Run(&r.args, s.serialOpts())
	}
}

// longOpts are the Options a long-route adapter runs under: the whole
// width of the server's executor and no SerialCutoff, so the kernel's
// own dispatch decides. On a 1-worker shard a long sort or scan is
// therefore the serial leaf on its caller's goroutine; on a wider shard
// it runs in parallel over the shard's executor. The caller is not
// counted as an extra worker: Procs()+1 was measured and lost.
func (s *shard) longOpts() par.Options {
	return par.Options{
		Procs:    s.cfg.executor.Procs(),
		Executor: s.cfg.executor,
		Scratch:  s.cfg.Scratch,
	}
}

// do admits r and waits for it to finish: in a batch slot for queued
// requests, right here for a long-route one. The caller still owns
// r afterwards: it reads any result fields and then returns r to the
// pool (results live in the pooled struct, so releasing here would race
// the read).
func (s *shard) do(r *request) error {
	if err := s.admit(r); err != nil {
		return err
	}
	if r.stream {
		s.runOne(r)
	}
	<-r.done
	return r.err
}

// CallBudget submits one request for kernel k with argument record a
// on behalf of tenant and waits for it: the only dispatch path — the
// server knows nothing about individual kernels beyond their
// descriptors, and the typed helpers (Sort, Select, ...) only build a
// for it. Results are copied back into a. Inputs at or above
// Config.PipelineCutoff take the long route when the kernel has an
// adapter for it (k.Stream): run on this goroutine, outside the queues.
// Small requests batch with other tenants' and keep the steady state
// allocation-free: the request record is pooled and a's fields move by
// value. A positive budget replaces Config.SLO for this request's
// admission prediction and queue-expiry stamp (the wire front door
// sets it from frame metadata so a remote client's own SLO governs);
// a zero budget inherits the server SLO.
func (s *shard) CallBudget(tenant string, k *kernel.Kernel, a *kernel.Args, budget time.Duration) error {
	if k == nil {
		return fmt.Errorf("serve: Call with nil kernel")
	}
	stream := s.cfg.PipelineCutoff > 0 && k.Stream != nil && a.Len() >= s.cfg.PipelineCutoff
	var tok rescache.Token
	if c := s.cfg.Cache; c != nil && !stream && rescache.Cacheable(k, a) {
		// Fast path: a hit restores the cached output into a and skips
		// validation, admission, queueing and the kernel entirely (a
		// cached entry can only have come from a validated run of the
		// byte-identical input, so re-validating proves nothing).
		// Hits stay allocation-free: the token and key live on the
		// stack, and Lookup copies into the caller's existing slices.
		// Once the cache is full, a miss on an input's first sighting
		// costs only a sketch and returns an invalid token, so its
		// result below is not stored.
		s.mu.Lock()
		t, err := s.doorLocked(tenant)
		s.mu.Unlock()
		if err != nil {
			return err
		}
		var hit bool
		if tok, hit = c.Lookup(tenant, k, a); hit {
			t.cacheHits.Add(1)
			return nil
		}
		s.cacheMisses.Add(1)
	}
	r := s.getRequest(k, tenant, a)
	r.budget = budget
	r.stream = stream
	if k.Validate != nil {
		if err := k.Validate(&r.args); err != nil {
			s.putRequest(r)
			return err
		}
	}
	err := s.do(r)
	if err == nil && tok.Valid() {
		// Store under the token captured before the kernel mutated the
		// input; Insert drops the result if the tenant's generation was
		// bumped while it computed.
		s.cfg.Cache.Insert(tenant, k, tok, &r.args)
	}
	*a = r.args
	s.putRequest(r)
	return err
}

// CallDeltaBudget submits one incremental request: the kernel's delta
// adapter folds d into the already-computed record a inside a batch
// slot, with the same admission, fairness, deadline, budget and
// migration semantics as CallBudget — for the cost of the delta
// instead of a full recompute. Kernels without a delta adapter fail
// loudly. The delta path never touches the result cache: entries
// describing the pre-delta input remain correct for that input.
func (s *shard) CallDeltaBudget(tenant string, k *kernel.Kernel, a *kernel.Args, d *kernel.Delta, budget time.Duration) error {
	if k == nil {
		return fmt.Errorf("serve: CallDelta with nil kernel")
	}
	if k.Delta == nil {
		return fmt.Errorf("serve: kernel %s has no delta adapter", k.Name)
	}
	r := s.getRequest(k, tenant, a)
	r.budget = budget
	r.delta = *d
	r.isDelta = true
	err := s.do(r)
	*a = r.args
	s.putRequest(r)
	return err
}
