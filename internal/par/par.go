package par

import (
	"runtime"
	"sync/atomic"

	"repro/internal/exec"
	"repro/internal/scratch"
)

// Policy selects how loop iterations are assigned to workers.
type Policy int

const (
	// Static divides [0,n) into P contiguous blocks up front. Zero
	// scheduling overhead; worst-case imbalance when work is skewed.
	Static Policy = iota
	// Cyclic deals iterations round-robin in grain-sized chunks
	// (chunked-cyclic). Good average balance for smoothly varying work,
	// poor cache locality on contiguous data.
	Cyclic
	// Dynamic hands out grain-sized chunks from a shared counter on
	// demand. Best balance; one atomic per chunk.
	Dynamic
	// Guided hands out chunks of exponentially decreasing size
	// (remaining/2P, floored at grain), the OpenMP "guided" schedule:
	// large early chunks amortize overhead, small late chunks fix
	// stragglers.
	Guided
)

// String returns the policy name used in experiment tables.
func (p Policy) String() string {
	switch p {
	case Static:
		return "static"
	case Cyclic:
		return "cyclic"
	case Dynamic:
		return "dynamic"
	case Guided:
		return "guided"
	default:
		return "unknown"
	}
}

// Policies lists all schedules in table order.
var Policies = []Policy{Static, Cyclic, Dynamic, Guided}

// Options configures a parallel primitive. The zero value requests
// GOMAXPROCS workers, the Static policy, a default grain, and the
// process-wide shared executor.
type Options struct {
	// Procs is the number of workers; <= 0 means runtime.GOMAXPROCS(0).
	Procs int
	// Policy selects the schedule.
	Policy Policy
	// Grain is the minimum chunk size for Cyclic/Dynamic/Guided; <= 0
	// means DefaultGrain. It controls chunking only — the serial
	// fallback is SerialCutoff's job, so a large Grain no longer
	// silently disables parallelism.
	Grain int
	// SerialCutoff is the problem size at or below which primitives run
	// serially regardless of Procs (the parallel setup is not worth it
	// below this); <= 0 means min(Grain, DefaultGrain). Set it to 1 to
	// force the parallel path for any n > 1.
	SerialCutoff int
	// Executor is the worker pool to dispatch onto; nil means the
	// process-wide exec.Default(). Long-lived servers can pin a
	// dedicated pool here to isolate a workload's parallelism.
	Executor *exec.Executor
	// Scratch is the buffer pool kernels draw their reusable
	// temporaries from; nil means the process-wide scratch.Default().
	// scratch.Off disables reuse (fresh allocation per call), the
	// baseline cmd/parbench -scratch=off measures against.
	Scratch *scratch.Pool
}

// DefaultGrain is the chunk size used when Options.Grain is unset.
const DefaultGrain = 1024

func (o Options) procs() int {
	if o.Procs > 0 {
		return o.Procs
	}
	return runtime.GOMAXPROCS(0)
}

func (o Options) grain() int {
	if o.Grain > 0 {
		return o.Grain
	}
	return DefaultGrain
}

func (o Options) serialCutoff() int {
	if o.SerialCutoff > 0 {
		return o.SerialCutoff
	}
	// Unset: a Grain below DefaultGrain keeps its historical second job
	// as the cutoff (small grains mean "parallelize even tiny n"), but
	// a Grain above it no longer silently disables an explicit
	// parallelism request — that is SerialCutoff's job now.
	if g := o.grain(); g < DefaultGrain {
		return g
	}
	return DefaultGrain
}

func (o Options) executor() *exec.Executor {
	if o.Executor != nil {
		return o.Executor
	}
	return exec.Default()
}

// ScratchPool resolves Options.Scratch for kernel packages that draw
// their own temporaries (psort, psel, plist, pgraph).
func (o Options) ScratchPool() *scratch.Pool {
	if o.Scratch != nil {
		return o.Scratch
	}
	return scratch.Default()
}

// ForWorkers executes fn(w) for every worker slot w in [0, p) on the
// pool selected by opts, returning when all slots are done. It is the
// fork/join primitive the blocked kernels build on (per-worker
// reductions, count/scan/scatter phases): slot indices are stable, so
// fn can own partial[w] without synchronization. fn must not block
// waiting for another slot to start — when the pool is busy a single
// participant may run all p slots sequentially (see exec.Run).
func ForWorkers(p int, opts Options, fn func(w int)) {
	if p <= 0 {
		return
	}
	if p == 1 {
		fn(0)
		return
	}
	opts.executor().Run(p, fn)
}

// ForWorkersArena is ForWorkers with a worker-local scratch arena
// handed to each slot body. The arena belongs to the participant
// running the slot (one acquire per participant, not per slot), so fn
// can Make slot-scoped temporaries — per-worker staging buffers,
// private accumulators — with no synchronization and no steady-state
// allocation. Arena buffers must not outlive fn; state that must
// survive the call belongs to a caller-side arena.
func ForWorkersArena(p int, opts Options, fn func(w int, a *scratch.Arena)) {
	if p <= 0 {
		return
	}
	opts.executor().RunArena(p, opts.ScratchPool(), fn)
}

// For executes body(i) for every i in [0, n) in parallel according to the
// schedule in opts. body must be safe to call concurrently for distinct i.
func For(n int, opts Options, body func(i int)) {
	ForRange(n, opts, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			body(i)
		}
	})
}

// ForRange executes body(lo, hi) over a partition of [0, n) in parallel.
// Using the range form lets kernels hoist per-chunk state (buffers,
// accumulators) out of the inner loop — the standard engineering move to
// reduce scheduling overhead.
func ForRange(n int, opts Options, body func(lo, hi int)) {
	if n <= 0 {
		return
	}
	p := opts.procs()
	if p > n {
		p = n
	}
	if p == 1 || n <= opts.serialCutoff() {
		body(0, n)
		return
	}
	e := opts.executor()
	switch opts.Policy {
	case Cyclic:
		forCyclic(e, n, p, opts.grain(), body)
	case Dynamic:
		forDynamic(e, n, p, opts.grain(), body)
	case Guided:
		forGuided(e, n, p, opts.grain(), body)
	default:
		forStatic(e, n, p, body)
	}
}

// forStatic assigns slot w the contiguous block [w*n/p, (w+1)*n/p).
func forStatic(e *exec.Executor, n, p int, body func(lo, hi int)) {
	e.Run(p, func(w int) {
		lo := w * n / p
		hi := (w + 1) * n / p
		if lo < hi {
			body(lo, hi)
		}
	})
}

// forCyclic deals grain-sized chunks round-robin: slot w gets chunks
// w, w+p, w+2p, ...
func forCyclic(e *exec.Executor, n, p, grain int, body func(lo, hi int)) {
	chunks := (n + grain - 1) / grain
	e.Run(p, func(w int) {
		for c := w; c < chunks; c += p {
			lo := c * grain
			hi := lo + grain
			if hi > n {
				hi = n
			}
			body(lo, hi)
		}
	})
}

// forDynamic hands out grain-sized chunks from a shared atomic cursor.
// Slots are interchangeable: every participant drains the same cursor.
func forDynamic(e *exec.Executor, n, p, grain int, body func(lo, hi int)) {
	var cursor atomic.Int64
	e.Run(p, func(int) {
		for {
			lo := int(cursor.Add(int64(grain))) - grain
			if lo >= n {
				return
			}
			hi := lo + grain
			if hi > n {
				hi = n
			}
			body(lo, hi)
		}
	})
}

// forGuided hands out exponentially shrinking chunks: each grab takes
// max(grain, remaining/(2p)) iterations. The cursor is advanced with a
// CAS loop — unlike a mutex, a stalled grabber never blocks the others,
// and the uncontended fast path is a single atomic.
func forGuided(e *exec.Executor, n, p, grain int, body func(lo, hi int)) {
	var cursor atomic.Int64
	e.Run(p, func(int) {
		for {
			lo, hi, ok := guidedGrab(&cursor, n, p, grain)
			if !ok {
				return
			}
			body(lo, hi)
		}
	})
}

// guidedGrab claims the next guided chunk [lo, hi) or reports that the
// iteration space is exhausted.
func guidedGrab(cursor *atomic.Int64, n, p, grain int) (lo, hi int, ok bool) {
	for {
		cur := cursor.Load()
		if cur >= int64(n) {
			return 0, 0, false
		}
		remaining := n - int(cur)
		size := remaining / (2 * p)
		if size < grain {
			size = grain
		}
		next := int(cur) + size
		if next > n {
			next = n
		}
		if cursor.CompareAndSwap(cur, int64(next)) {
			return int(cur), next, true
		}
	}
}
