package pipeline

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/adapt"
	"repro/internal/exec"
	"repro/internal/par"
	"repro/internal/scratch"
)

const (
	// DefaultChunkSize is 8192 elements — 64 KiB of int64, sized to sit
	// in L2 while chunks hop between stages.
	DefaultChunkSize = 8192
	// DefaultQueueDepth bounds each inter-stage queue to 4 chunks: deep
	// enough to absorb stage jitter, shallow enough that a pipeline's
	// in-flight footprint stays a small multiple of the chunk size.
	DefaultQueueDepth = 4
)

// Config shapes a pipeline. The zero value selects the defaults
// documented on each field.
type Config struct {
	// ChunkSize is the maximum number of elements per chunk; <= 0
	// means DefaultChunkSize.
	ChunkSize int
	// QueueDepth is the number of chunks each inter-stage queue
	// buffers; <= 0 means DefaultQueueDepth.
	QueueDepth int
	// Opts carries the kernel configuration every stage runs under:
	// executor, scratch pool, schedule/grain for intra-chunk
	// parallelism, and the adaptive controller. Setting SerialCutoff at
	// or above ChunkSize runs each stage's kernels serially per chunk —
	// the steady-traffic configuration where stage concurrency and
	// request concurrency already own the parallelism and per-chunk
	// fork/join would only add overhead.
	Opts par.Options
}

// Per-stage adaptive sites: one per stage kind, so the controller's
// (site, size-class) cache learns each stage's cost shape separately.
// Stage kinds with kernel-internal sites (sort → psort/par.Merge,
// top-k → psel) tune through those instead.
var (
	siteSource = adapt.NewSite("pipeline.source", adapt.KindRange)
	siteMap    = adapt.NewSite("pipeline.map", adapt.KindRange)
	siteFilter = adapt.NewSite("pipeline.filter", adapt.KindWorkers)
	siteScan   = adapt.NewSite("pipeline.runningsum", adapt.KindWorkers)
	siteHist   = adapt.NewSite("pipeline.histogram", adapt.KindWorkers)
	siteSum    = adapt.NewSite("pipeline.sum", adapt.KindWorkers)
	siteTopK   = adapt.NewSite("pipeline.topk", adapt.KindWorkers)
)

// Errors returned by Run.
var (
	// ErrClosed reports a pipeline cancelled by Close before the
	// stream completed.
	ErrClosed = errors.New("pipeline: closed before completion")
	// ErrAlreadyRan reports a second Run on the same pipeline; build a
	// fresh pipeline per run (construction is cheap).
	ErrAlreadyRan = errors.New("pipeline: Run already called")
)

// chunk is one unit of streamed data: a dense prefix of a pooled
// buffer plus the handle to return it with. Chunks travel by value, so
// handing one to a channel allocates nothing.
type chunk struct {
	buf []int64
	h   scratch.Handle
}

type stageKind uint8

const (
	kindSource stageKind = iota
	kindTransform
	kindSink
)

// stageRec is one built stage: its runner plus live counters.
type stageRec struct {
	name string
	kind stageKind
	// run drives the stage: receive from in (nil for the source), send
	// to out (nil for the sink), return when the stream is done. It
	// must close out (when non-nil), drain in fully, and release every
	// chunk it does not forward.
	run func(in <-chan chunk, out chan<- chunk)

	chunks atomic.Int64
	elems  atomic.Int64
	busyNs atomic.Int64
}

// note records one processed chunk of n elements taking d.
func (s *stageRec) note(n int, d time.Duration) {
	s.chunks.Add(1)
	s.elems.Add(int64(n))
	s.busyNs.Add(d.Nanoseconds())
}

// StageStats is one stage's processing counters.
type StageStats struct {
	// Name identifies the stage ("source", "map", "sort", ...).
	Name string
	// Chunks and Elems count the chunks/elements the stage processed.
	Chunks int64
	Elems  int64
	// Busy is time spent processing chunks, plus a transform's
	// end-of-stream flush (excludes queue waits).
	Busy time.Duration
}

// Stats is a snapshot of a pipeline's counters. Fully consistent after
// Run returns; safe (but racy in the gauge sense) while running.
type Stats struct {
	// Stages holds per-stage counters in pipeline order.
	Stages []StageStats
	// Wall is the Run wall-clock time (0 until Run returns).
	Wall time.Duration
	// SourceElems / SinkElems are the elements produced by the source
	// and consumed by the sink.
	SourceElems int64
	SinkElems   int64
	// Chunks is the number of chunks the source emitted.
	Chunks int64
	// Occupancy is the mean executor occupancy sampled once per source
	// chunk — how busy the shared pool was under the pipeline's load.
	Occupancy float64
}

// Throughput returns source elements per second over the run's wall
// time (0 before Run completes).
func (s Stats) Throughput() float64 {
	if s.Wall <= 0 {
		return 0
	}
	return float64(s.SourceElems) / s.Wall.Seconds()
}

// Pipeline is a built dataflow: one source, any number of transforms,
// one sink. Build it with New and the chaining stage methods, then
// call Run once. A Pipeline is not safe for concurrent building;
// Run/Close/Stats are safe concurrently.
type Pipeline struct {
	cfg      Config
	stages   []*stageRec
	buildErr error

	state atomic.Int32 // 0 built, 1 running, 2 done
	done  chan struct{}
	once  sync.Once

	mu  sync.Mutex
	err error

	wallNs atomic.Int64
	occSum atomic.Int64 // occupancy samples in millionths
	occN   atomic.Int64

	// free recycles chunk buffers pipeline-locally. Chunks are Get'd
	// on producer goroutines but consumed (and would be Put) on
	// consumer goroutines, which defeats the scratch pool's
	// stack-address shard heuristic — every Get would miss while the
	// consumer's shard fills. Routing returns through one shared list
	// keeps the steady-state chunk path at zero allocations; the
	// buffers still belong to the scratch pool and are Put back when
	// the run ends (or when the list overflows).
	free chan chunk
}

// New creates an empty pipeline with the given configuration.
func New(cfg Config) *Pipeline {
	return &Pipeline{cfg: cfg, done: make(chan struct{})}
}

func (p *Pipeline) chunkSize() int {
	if p.cfg.ChunkSize > 0 {
		return p.cfg.ChunkSize
	}
	return DefaultChunkSize
}

func (p *Pipeline) queueDepth() int {
	if p.cfg.QueueDepth > 0 {
		return p.cfg.QueueDepth
	}
	return DefaultQueueDepth
}

func (p *Pipeline) executor() *exec.Executor {
	if p.cfg.Opts.Executor != nil {
		return p.cfg.Opts.Executor
	}
	return exec.Default()
}

func (p *Pipeline) pool() *scratch.Pool { return p.cfg.Opts.ScratchPool() }

// stageOpts is the kernel Options a stage runs under: the pipeline's
// configured Options with the stage's adaptive site pinned.
func (p *Pipeline) stageOpts(site *adapt.Site) par.Options {
	o := p.cfg.Opts
	o.Site = site
	return o
}

// serialChunk reports whether per-chunk kernel work of n elements
// should bypass the parallel kernels entirely (mirrors the par-level
// serial contract for kernels like psort that do not read
// SerialCutoff themselves).
func (p *Pipeline) serialChunk(n int) bool {
	return p.cfg.Opts.Procs == 1 || (p.cfg.Opts.SerialCutoff > 0 && n <= p.cfg.Opts.SerialCutoff)
}

// newChunk takes an empty chunk buffer (len 0, cap >= ChunkSize) from
// the pipeline's recycle list, falling back to the scratch pool.
func (p *Pipeline) newChunk() chunk {
	select {
	case c := <-p.free:
		c.buf = c.buf[:0]
		return c
	default:
	}
	buf, h := scratch.GetCap[int64](p.pool(), 0, p.chunkSize())
	return chunk{buf: buf, h: h}
}

// release returns a chunk's buffer to the recycle list (or the scratch
// pool when the list is full or recycling is off).
func (p *Pipeline) release(c chunk) {
	if p.free != nil && p.pool() != scratch.Off {
		select {
		case p.free <- c:
			return
		default:
		}
	}
	scratch.Put(c.h)
}

// cancelled reports whether the pipeline has been cancelled (Close or
// a sink error).
func (p *Pipeline) cancelled() bool {
	select {
	case <-p.done:
		return true
	default:
		return false
	}
}

// send forwards c to out, or releases it when the pipeline is
// cancelled first. It reports whether the send happened — after a
// false return the stage must stop producing and fall back to
// draining. send never blocks forever: either the consumer advances or
// the cancel channel fires.
func (p *Pipeline) send(out chan<- chunk, c chunk) bool {
	select {
	case out <- c:
		return true
	case <-p.done:
		p.release(c)
		return false
	}
}

// fail records the first error and cancels the run.
func (p *Pipeline) fail(err error) {
	p.mu.Lock()
	if p.err == nil {
		p.err = err
	}
	p.mu.Unlock()
	p.cancel()
}

func (p *Pipeline) cancel() { p.once.Do(func() { close(p.done) }) }

// Close cancels a running pipeline: stages stop processing, drain and
// release every in-flight chunk, and Run returns ErrClosed (or the
// earlier sink error, if one already fired). Close is safe to call
// multiple times, from any goroutine, before, during or after Run.
func (p *Pipeline) Close() {
	p.mu.Lock()
	if p.err == nil {
		p.err = ErrClosed
	}
	p.mu.Unlock()
	p.cancel()
}

// sampleOccupancy records one executor-occupancy sample (called by the
// source once per chunk).
func (p *Pipeline) sampleOccupancy() {
	p.occSum.Add(int64(p.executor().Occupancy() * 1e6))
	p.occN.Add(1)
}

// addStage appends a stage, enforcing the source → transforms → sink
// shape at build time.
func (p *Pipeline) addStage(name string, kind stageKind,
	run func(st *stageRec, in <-chan chunk, out chan<- chunk)) *stageRec {
	if p.buildErr != nil {
		return nil
	}
	switch kind {
	case kindSource:
		if len(p.stages) != 0 {
			p.buildErr = fmt.Errorf("pipeline: source %q must be the first stage", name)
			return nil
		}
	default:
		if len(p.stages) == 0 {
			p.buildErr = fmt.Errorf("pipeline: stage %q requires a source first", name)
			return nil
		}
		if p.stages[len(p.stages)-1].kind == kindSink {
			p.buildErr = fmt.Errorf("pipeline: stage %q added after the sink", name)
			return nil
		}
	}
	st := &stageRec{name: name, kind: kind}
	st.run = func(in <-chan chunk, out chan<- chunk) { run(st, in, out) }
	p.stages = append(p.stages, st)
	return st
}

// Run executes the pipeline and blocks until the stream completes, the
// sink fails, or Close is called. It returns nil on a completed
// stream, the sink's error, or ErrClosed. Run may be called once.
func (p *Pipeline) Run() error {
	if p.buildErr != nil {
		return p.buildErr
	}
	if len(p.stages) == 0 || p.stages[0].kind != kindSource {
		return errors.New("pipeline: no source stage")
	}
	if p.stages[len(p.stages)-1].kind != kindSink {
		return errors.New("pipeline: no sink stage")
	}
	if !p.state.CompareAndSwap(0, 1) {
		return ErrAlreadyRan
	}
	// Size the recycle list for the worst-case in-flight population:
	// every queue full plus a couple of chunks per stage in hand.
	p.free = make(chan chunk, len(p.stages)*(p.queueDepth()+2)+4)
	if pool := p.pool(); pool != scratch.Off {
		// Pre-populate the list from the caller's goroutine (bounded
		// to a modest byte budget for huge chunk sizes): acquiring and
		// finally releasing the slabs on one stable goroutine keeps
		// them on one scratch shard across runs, so stage goroutines —
		// fresh every run, landing on arbitrary shards — never touch
		// the pool on the chunk path at all.
		fill := cap(p.free)
		if budget := (32 << 20) / (p.chunkSize() * 8); fill > budget {
			fill = budget
		}
		for i := 0; i < fill; i++ {
			buf, h := scratch.GetCap[int64](pool, 0, p.chunkSize())
			p.free <- chunk{buf: buf, h: h}
		}
	}
	e := p.executor()
	t0 := time.Now()
	var wg sync.WaitGroup
	var in chan chunk
	for i, st := range p.stages {
		var out chan chunk
		if i < len(p.stages)-1 {
			out = make(chan chunk, p.queueDepth())
		}
		wg.Add(1)
		stIn, stOut, run := in, out, st.run
		// Stage loops block on channel sends/receives, so they run on
		// dedicated goroutines (exec.Go), not pooled workers; the
		// kernels they invoke dispatch onto the shared pool.
		e.Go(func() {
			defer wg.Done()
			run(stIn, stOut)
		})
		in = out
	}
	wg.Wait()
	// All stages have exited: return every recycled buffer to the
	// scratch pool so a finished (or cancelled) pipeline leaves no
	// bytes on loan.
	for {
		select {
		case c := <-p.free:
			scratch.Put(c.h)
			continue
		default:
		}
		break
	}
	p.wallNs.Store(time.Since(t0).Nanoseconds())
	p.state.Store(2)
	p.mu.Lock()
	err := p.err
	p.mu.Unlock()
	return err
}

// Stats returns the pipeline's counters.
func (p *Pipeline) Stats() Stats {
	s := Stats{
		Stages: make([]StageStats, len(p.stages)),
		Wall:   time.Duration(p.wallNs.Load()),
	}
	for i, st := range p.stages {
		s.Stages[i] = StageStats{
			Name:   st.name,
			Chunks: st.chunks.Load(),
			Elems:  st.elems.Load(),
			Busy:   time.Duration(st.busyNs.Load()),
		}
	}
	if len(p.stages) > 0 {
		s.SourceElems = s.Stages[0].Elems
		s.Chunks = s.Stages[0].Chunks
		s.SinkElems = s.Stages[len(p.stages)-1].Elems
	}
	if n := p.occN.Load(); n > 0 {
		s.Occupancy = float64(p.occSum.Load()) / 1e6 / float64(n)
	}
	return s
}

// runTransform is the shared transform loop: process each chunk (the
// stage owns it; emit at most one chunk per input), flush internal
// state at end-of-stream into a tail it emits in chunks, and after
// cancellation keep draining so upstream queues empty and every
// buffered chunk returns to the pool. The flush and the tail's chunk
// copies count toward the stage's Busy time, not its Chunks or Elems;
// waits on the downstream queue do not.
func (p *Pipeline) runTransform(st *stageRec, in <-chan chunk, out chan<- chunk,
	process func(c chunk) (chunk, bool), flush func() []int64) {
	defer close(out)
	for c := range in {
		if p.cancelled() {
			p.release(c)
			continue
		}
		n := len(c.buf)
		t0 := time.Now()
		oc, emit := process(c)
		st.note(n, time.Since(t0))
		if emit {
			p.send(out, oc)
		}
	}
	if flush != nil && !p.cancelled() {
		t0 := time.Now()
		tail := flush()
		st.busyNs.Add(time.Since(t0).Nanoseconds())
		p.emitSlice(out, tail, func(_ int, d time.Duration) { st.busyNs.Add(d.Nanoseconds()) })
	}
}

// runSink is the shared sink loop: consume (and release) every chunk;
// process errors cancel the pipeline.
func (p *Pipeline) runSink(st *stageRec, in <-chan chunk, process func(buf []int64) error) {
	for c := range in {
		if p.cancelled() {
			p.release(c)
			continue
		}
		t0 := time.Now()
		err := process(c.buf)
		st.note(len(c.buf), time.Since(t0))
		p.release(c)
		if err != nil {
			p.fail(err)
		}
	}
}
