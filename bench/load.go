package main

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/kernel"
	"repro/internal/wire"
)

// sample is one timed request as its caller saw it.
type sample struct {
	end  int64 // nowNs when the decoded reply was in hand
	dur  int64 // round trip, send to decoded reply
	long bool  // wire_bulk's long class
	ok   bool  // answered without error, and right when verified
}

// caller is one closed-loop client: it owns its connection and its
// buffers and waits for each reply before sending the next request.
type caller struct {
	id   int
	p    *plan
	be   wire.Backend
	t    *tracer // non-nil in a traced run
	seq  uint64
	args kernel.Args
	want kernel.Args
	// Request and oracle buffers, sized for the pool's largest input.
	xs, dst, wantXs, wantDst []int64
	hist, wantHist           []int

	samples []sample
	prepNs  int64 // input copy and oracle copy, outside the latency clock
	err     error // first failure, for the report
}

func newCaller(id int, p *plan, be wire.Backend, t *tracer) *caller {
	return &caller{
		id: id, p: p, be: be, t: t,
		xs: make([]int64, p.maxXs), dst: make([]int64, p.maxDst), hist: make([]int, p.maxHist),
		wantXs: make([]int64, p.maxXs), wantDst: make([]int64, p.maxDst), wantHist: make([]int, p.maxHist),
	}
}

// fill points a at bufs holding e's input rotated left by rot.
func fill(a *kernel.Args, e *entry, rot int, xs, dst []int64, hist []int) {
	in := e.in
	n := len(in.Xs)
	*a = kernel.Args{Xs: xs[:n], K: in.K, Seed: in.Seed}
	copy(a.Xs, in.Xs[rot:])
	copy(a.Xs[n-rot:], in.Xs[:rot])
	if in.Dst != nil {
		a.Dst = dst[:len(in.Dst)]
	}
	if in.Hist != nil {
		// The bucket function cannot cross the wire; the server installs
		// this one, so the oracle and the embedded path use it too.
		a.Hist = hist[:len(in.Hist)]
		a.Bucket = wire.CanonicalBucket(len(in.Hist))
	}
}

// call issues one request and returns its sample. Src 0 leaves the
// request untraced. When verify is set the reply is checked against
// the kernel's serial oracle run on a pre-call copy of the input,
// off the latency clock.
func (c *caller) call(e *entry, rot int, tenant string, verify bool, src int) sample {
	t0 := nowNs()
	fill(&c.args, e, rot, c.xs, c.dst, c.hist)
	c.args.Src = src
	if verify {
		fill(&c.want, e, rot, c.wantXs, c.wantDst, c.wantHist)
	}
	start := nowNs()
	c.prepNs += start - t0
	err := c.be.CallBudget(tenant, e.k, &c.args, c.p.w.budget)
	end := nowNs()
	if src != 0 {
		c.t.client[c.id] = append(c.t.client[c.id], span{req: uint64(src), kind: spanClient, start: start, end: end})
	}
	if err == nil && verify {
		e.k.Serial(&c.want)
		if cerr := e.k.Check(&c.args, &c.want); cerr != nil {
			err = fmt.Errorf("wrong answer: %w", cerr)
		}
	}
	if err != nil && c.err == nil {
		c.err = fmt.Errorf("%s for tenant %s: %w", e.k.Name, tenant, err)
	}
	return sample{end: end, dur: end - start, long: e.long, ok: err == nil}
}

// load is a plan bound to a connected target.
type load struct {
	p       *plan
	tg      *target
	callers []*caller
	next    atomic.Uint64 // number of the next timed request
}

func newLoad(p *plan, tg *target, t *tracer) *load {
	l := &load{p: p, tg: tg}
	for i, be := range tg.backends {
		l.callers = append(l.callers, newCaller(i, p, be, t))
	}
	return l
}

// each runs fn on every caller's own goroutine and waits for all.
func (l *load) each(fn func(c *caller)) {
	var wg sync.WaitGroup
	for _, c := range l.callers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(c)
		}()
	}
	wg.Wait()
}

// firstTouch sends one request per kernel of the pool over the first
// connection alone. wire.lookupKernel resolves a name registered
// after its init (the traced twins) by swapping its name index
// without a lock, so each name's first decode must not race another
// connection's.
func (l *load) firstTouch() error {
	c := l.callers[0]
	seen := map[*kernel.Kernel]bool{}
	for i := range l.p.pool {
		e := &l.p.pool[i]
		if seen[e.k] {
			continue
		}
		seen[e.k] = true
		if s := c.call(e, 0, tenants[0], true, 0); !s.ok {
			return c.err
		}
	}
	return nil
}

// warmUp is one verified pass over the input pool, unrotated, split
// across the callers: it fills the server's caches and buffers and,
// being count-based, costs less as the program gets faster.
func (l *load) warmUp() error {
	if err := l.firstTouch(); err != nil {
		return err
	}
	l.each(func(c *caller) {
		for i := c.id; i < len(l.p.pool); i += len(l.callers) {
			e := &l.p.pool[i]
			c.call(e, 0, l.p.tenantOf(e, uint64(i)), true, 0)
		}
	})
	for _, c := range l.callers {
		if c.err != nil {
			return fmt.Errorf("warm-up: %w", c.err)
		}
	}
	return nil
}

// tick is a reading of the server's CPU clock at a slice boundary.
type tick struct {
	at  int64
	cpu time.Duration
}

// window is what one timed run of the load produced.
type window struct {
	samples []sample // ascending by end
	ticks   []tick   // slice boundaries, first at the window's start
	prepNs  int64
	err     error // first failed request or clock read
}

// run drives the closed loop for d, reading the server's CPU clock at
// slices+1 evenly spaced boundaries.
func (l *load) run(d time.Duration, slices int) *window {
	w := &window{}
	start := nowNs()
	deadline := start + int64(d)
	for _, c := range l.callers {
		c.samples, c.prepNs = c.samples[:0], 0
	}

	tickDone := make(chan struct{})
	go func() {
		defer close(tickDone)
		for k := 0; k <= slices; k++ {
			at := start + int64(d)*int64(k)/int64(slices)
			time.Sleep(time.Duration(at - nowNs()))
			cpu, err := l.tg.cpu()
			if err != nil && w.err == nil {
				w.err = err
			}
			w.ticks = append(w.ticks, tick{at: nowNs(), cpu: cpu})
		}
	}()

	l.each(func(c *caller) {
		for nowNs() < deadline {
			t := l.next.Add(1) - 1
			e, rot, tenant, verify := l.p.request(t)
			src := 0
			if c.t != nil {
				c.seq++
				src = requestID(c.id, c.seq)
			}
			c.samples = append(c.samples, c.call(e, rot, tenant, verify, src))
		}
	})
	<-tickDone

	for _, c := range l.callers {
		w.samples = append(w.samples, c.samples...)
		w.prepNs += c.prepNs
		if c.err != nil && w.err == nil {
			w.err = c.err
		}
	}
	sort.Slice(w.samples, func(i, j int) bool { return w.samples[i].end < w.samples[j].end })
	return w
}
