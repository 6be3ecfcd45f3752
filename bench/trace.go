package main

import (
	"bufio"
	"cmp"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"

	"repro/internal/kernel"
	"repro/internal/par"
	"repro/internal/wire"
)

// epoch anchors every clock reading of the benchmark; nowNs is
// monotonic nanoseconds since it.
var epoch = time.Now()

func nowNs() int64 { return int64(time.Since(epoch)) }

type spanKind uint8

const (
	spanClient spanKind = iota
	spanServe
	spanKernel
	spanPipeline
	numSpanKinds
)

var spanNames = [numSpanKinds]string{"client.call", "serve.call", "kernel.run", "pipeline.stream"}

// spanParent is the span that causes each kind; the root has none.
var spanParent = [numSpanKinds]int{-1, int(spanClient), int(spanServe), int(spanServe)}

// span is one timed interval at a layer boundary. The spans of one
// request share req.
type span struct {
	req        uint64
	start, end int64 // nowNs readings
	elems      int32 // kernel.run and pipeline.stream: input length
	kind       spanKind
}

// tracer holds the spans of one traced run in memory. Request ids
// carry the caller's index in their high half, and a caller has one
// request in flight, so each per-caller buffer has one writer at a
// time: the caller's own goroutine for client spans, and for the two
// server-side sets whichever goroutine is serving that caller's
// request, ordered from one request to the next by the connection's
// reader goroutine (or, embedded, by the caller itself).
type tracer struct {
	client, serve, kern [][]span
}

func requestID(caller int, seq uint64) int { return (caller+1)<<32 | int(seq&0xFFFFFFFF) }

// reset drops the previous run's spans and preallocates room for
// perCaller requests from each of callers callers.
func (t *tracer) reset(callers, perCaller int) {
	fresh := func() [][]span {
		bufs := make([][]span, callers)
		for i := range bufs {
			bufs[i] = make([]span, 0, perCaller)
		}
		return bufs
	}
	t.client, t.serve, t.kern = fresh(), fresh(), fresh()
}

func add(bufs [][]span, sp span) {
	c := int(sp.req>>32) - 1
	bufs[c] = append(bufs[c], sp)
}

// all returns every recorded span in one slice.
func (t *tracer) all() []span {
	var out []span
	for _, set := range [][][]span{t.client, t.serve, t.kern} {
		for _, buf := range set {
			out = append(out, buf...)
		}
	}
	return out
}

// twinSuffix names the span-recording copy of a kernel.
const twinSuffix = ".traced"

// theTracer registers, once per process, a twin of every kernel the
// workloads use — a copy whose variants and streaming adapter record
// kernel.run and pipeline.stream spans — and returns the tracer they
// record into. Twins must exist before any listener does: see
// firstTouch.
var theTracer = sync.OnceValue(func() *tracer {
	t := &tracer{}
	for _, name := range []string{"sort", "select", "histogram", "scan", "sum", "topk"} {
		twin := *kernel.MustLookup(name)
		twin.Name += twinSuffix
		twin.Variants = append([]kernel.Variant(nil), twin.Variants...)
		for i := range twin.Variants {
			run := twin.Variants[i].Run
			twin.Variants[i].Run = func(a *kernel.Args, o par.Options) {
				req := uint64(a.Src)
				if req == 0 {
					run(a, o)
					return
				}
				sp := span{req: req, kind: spanKernel, elems: int32(a.Len()), start: nowNs()}
				run(a, o)
				sp.end = nowNs()
				add(t.kern, sp)
			}
		}
		if stream := twin.Stream; stream != nil {
			twin.Stream = func(a *kernel.Args, o par.Options) error {
				req := uint64(a.Src)
				if req == 0 {
					return stream(a, o)
				}
				sp := span{req: req, kind: spanPipeline, elems: int32(a.Len()), start: nowNs()}
				err := stream(a, o)
				sp.end = nowNs()
				add(t.kern, sp)
				return err
			}
		}
		kernel.Register(twin)
	}
	return t
})

func twinLookup(name string) *kernel.Kernel { return kernel.MustLookup(name + twinSuffix) }

// tracedBackend records the serve.call span around the serving
// layer's entry point. A request with Src 0 (warm-up) is not traced.
type tracedBackend struct {
	be wire.Backend
	t  *tracer
}

func (b tracedBackend) CallBudget(tenant string, k *kernel.Kernel, a *kernel.Args, budget time.Duration) error {
	req := uint64(a.Src)
	if req == 0 {
		return b.be.CallBudget(tenant, k, a, budget)
	}
	sp := span{req: req, kind: spanServe, start: nowNs()}
	err := b.be.CallBudget(tenant, k, a, budget)
	sp.end = nowNs()
	add(b.t.serve, sp)
	return err
}

func (b tracedBackend) CallDeltaBudget(tenant string, k *kernel.Kernel, a *kernel.Args, d *kernel.Delta, budget time.Duration) error {
	return b.be.CallDeltaBudget(tenant, k, a, d, budget)
}

// selfTimes returns, index-aligned with spans, each span's duration
// minus the part of its interval its child spans cover. Children of
// one span run one after another here, so their clipped lengths add
// without double counting. spans is reordered (grouped by request).
func selfTimes(spans []span) []int64 {
	slices.SortStableFunc(spans, func(a, b span) int { return cmp.Compare(a.req, b.req) })
	self := make([]int64, len(spans))
	for lo := 0; lo < len(spans); {
		hi := lo
		for hi < len(spans) && spans[hi].req == spans[lo].req {
			hi++
		}
		for i := lo; i < hi; i++ {
			p := &spans[i]
			self[i] = p.end - p.start
			for j := lo; j < hi; j++ {
				c := &spans[j]
				if spanParent[c.kind] != int(p.kind) {
					continue
				}
				if covered := min(c.end, p.end) - max(c.start, p.start); covered > 0 {
					self[i] -= covered
				}
			}
		}
		lo = hi
	}
	return self
}

// traceFileSpans caps the spans written per trace file; metrics are
// computed from every span in memory, the file is for reading.
const traceFileSpans = 300_000

// writeTrace writes spans to dir/<workload>.trace.tsv, one span per
// line: name, request id, parent span name, start and end in
// nanoseconds since the benchmark started, and input elements.
func writeTrace(dir, workload string, spans []span) (err error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("trace dir: %w", err)
	}
	f, err := os.Create(filepath.Join(dir, workload+".trace.tsv"))
	if err != nil {
		return fmt.Errorf("trace file: %w", err)
	}
	defer func() {
		if cerr := f.Close(); err == nil && cerr != nil {
			err = fmt.Errorf("trace file: %w", cerr)
		}
	}()
	w := bufio.NewWriter(f)
	n := min(len(spans), traceFileSpans)
	fmt.Fprintf(w, "# %d of %d spans\nspan\treq\tparent\tstart_ns\tend_ns\telems\n", n, len(spans))
	for _, sp := range spans[:n] {
		parent := "-"
		if p := spanParent[sp.kind]; p >= 0 {
			parent = spanNames[p]
		}
		fmt.Fprintf(w, "%s\t%d\t%s\t%d\t%d\t%d\n", spanNames[sp.kind], sp.req, parent, sp.start, sp.end, sp.elems)
	}
	if err := w.Flush(); err != nil {
		return fmt.Errorf("trace file: %w", err)
	}
	return nil
}
