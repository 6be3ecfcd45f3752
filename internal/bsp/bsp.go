package bsp

import (
	"sync"

	"repro/internal/exec"
	"repro/internal/machine"
)

// Stats is the cost trace of one Run: per-superstep maxima from which
// BSP cost is computed for any machine parameters.
type Stats struct {
	Trace []machine.Superstep
}

// Supersteps returns the number of recorded supersteps.
func (s *Stats) Supersteps() int { return len(s.Trace) }

// Cost evaluates the recorded trace under params.
func (s *Stats) Cost(params machine.BSPParams) float64 {
	return params.TotalCost(s.Trace)
}

// TotalW returns the summed per-superstep maximum local work.
func (s *Stats) TotalW() float64 {
	t := 0.0
	for _, st := range s.Trace {
		t += st.W
	}
	return t
}

// TotalH returns the summed per-superstep maximum h-relation.
func (s *Stats) TotalH() float64 {
	t := 0.0
	for _, st := range s.Trace {
		t += st.H
	}
	return t
}

// Proc is one virtual processor's handle. Methods must only be called
// from the goroutine running this processor's program.
type Proc[M any] struct {
	id    int
	coord *coordinator[M]

	outbox   map[int][]M
	outWords map[int]float64
	sent     float64
	ops      float64
	inbox    []M
}

// ID returns this processor's rank in [0, P).
func (c *Proc[M]) ID() int { return c.id }

// NProcs returns the machine size P.
func (c *Proc[M]) NProcs() int { return c.coord.p }

// Charge declares ops units of local computation in this superstep.
func (c *Proc[M]) Charge(ops int) { c.ops += float64(ops) }

// Send queues one message (one abstract word) for processor `to`,
// delivered at the next Sync.
func (c *Proc[M]) Send(to int, msg M) { c.SendWords(to, msg, 1) }

// SendWords queues one message counted as `words` abstract words in the
// h-relation — used by kernels whose messages carry bulk payloads
// (e.g. matrix panels), so the model charges their true volume.
func (c *Proc[M]) SendWords(to int, msg M, words int) {
	c.outbox[to] = append(c.outbox[to], msg)
	c.outWords[to] += float64(words)
	c.sent += float64(words)
}

// Sync ends the superstep: messages are exchanged, model costs recorded,
// and all processors advance together. It returns the new inbox.
func (c *Proc[M]) Sync() []M {
	c.inbox = c.coord.sync(c.id, c.outbox, c.outWords, c.sent, c.ops)
	c.outbox = make(map[int][]M)
	c.outWords = make(map[int]float64)
	c.sent = 0
	c.ops = 0
	return c.inbox
}

// RunOn executes prog on p virtual processors and returns the cost
// trace, routing their goroutines through executor e (nil means
// exec.Default()). Virtual processors park on the superstep barrier
// waiting for their siblings, so they need dedicated goroutines rather
// than slots of the fixed-size pool — p routinely exceeds the physical
// worker count (that is the point of the simulator) and pooled dispatch
// would deadlock at the first Sync. Executor.Go provides exactly that:
// dedicated goroutines, but accounted on the shared runtime so servers
// can observe all parallel activity in one place.
func RunOn[M any](e *exec.Executor, p int, prog func(c *Proc[M])) *Stats {
	if p < 1 {
		p = 1
	}
	if e == nil {
		e = exec.Default()
	}
	coord := newCoordinator[M](p)
	var wg sync.WaitGroup
	wg.Add(p)
	for id := 0; id < p; id++ {
		id := id
		e.Go(func() {
			defer wg.Done()
			c := &Proc[M]{id: id, coord: coord, outbox: make(map[int][]M), outWords: make(map[int]float64)}
			prog(c)
			coord.exit(id)
		})
	}
	wg.Wait()
	return &Stats{Trace: coord.trace}
}

// coordinator implements the reusable barrier with message routing and
// cost accounting.
type coordinator[M any] struct {
	mu   sync.Mutex
	cond *sync.Cond
	p    int

	arrived    int
	done       int
	generation int

	next      [][]M     // staged inboxes for the coming superstep
	current   [][]M     // inboxes delivered at the last barrier
	maxOps    float64   // max local work among arrivals this superstep
	sentBy    []float64 // words sent per proc this superstep
	recvWords []float64 // words staged for each proc this superstep
	trace     []machine.Superstep
}

func newCoordinator[M any](p int) *coordinator[M] {
	c := &coordinator[M]{
		p:         p,
		next:      make([][]M, p),
		current:   make([][]M, p),
		sentBy:    make([]float64, p),
		recvWords: make([]float64, p),
	}
	c.cond = sync.NewCond(&c.mu)
	return c
}

// sync is called by processor id at the end of a superstep.
func (c *coordinator[M]) sync(id int, outbox map[int][]M, outWords map[int]float64, sent, ops float64) []M {
	c.mu.Lock()
	defer c.mu.Unlock()
	for to, msgs := range outbox {
		c.next[to] = append(c.next[to], msgs...)
	}
	for to, w := range outWords {
		c.recvWords[to] += w
	}
	c.sentBy[id] = sent
	if ops > c.maxOps {
		c.maxOps = ops
	}
	c.arrived++
	gen := c.generation
	if c.arrived+c.done == c.p {
		c.completeStep()
	} else {
		for c.generation == gen {
			c.cond.Wait()
		}
	}
	inbox := c.current[id]
	c.current[id] = nil
	return inbox
}

// exit marks processor id as finished; it no longer participates in
// barriers.
func (c *coordinator[M]) exit(id int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.done++
	if c.arrived > 0 && c.arrived+c.done == c.p {
		c.completeStep()
	}
}

// completeStep finalizes the superstep under c.mu: computes the model
// maxima, installs inboxes, and releases the barrier.
func (c *coordinator[M]) completeStep() {
	// h-relation: max over procs of max(words sent, words received).
	h := 0.0
	for i := 0; i < c.p; i++ {
		m := c.sentBy[i]
		if c.recvWords[i] > m {
			m = c.recvWords[i]
		}
		if m > h {
			h = m
		}
		c.sentBy[i] = 0
		c.recvWords[i] = 0
	}
	c.trace = append(c.trace, machine.Superstep{W: c.maxOps, H: h})
	c.current, c.next = c.next, make([][]M, c.p)
	c.maxOps = 0
	c.arrived = 0
	c.generation++
	c.cond.Broadcast()
}
