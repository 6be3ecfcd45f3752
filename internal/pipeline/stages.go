package pipeline

import (
	"fmt"
	"time"

	"repro/internal/par"
	"repro/internal/psel"
	"repro/internal/psort"
	"repro/internal/scratch"
	"repro/internal/seq"
)

// Stage bodies hoist their kernel closures out of the per-chunk loop
// (capturing loop state through pointer cells), so steady-state chunk
// processing creates no new closure frames: with intra-chunk work on
// the serial path (Opts.SerialCutoff >= ChunkSize, or a converged
// adaptive controller that decided serial) a chunk's whole journey
// through the pipeline allocates nothing.

// emitSlice streams xs into out in chunk-sized pieces, honoring
// cancellation. A non-nil each observes every emitted chunk (element
// count and time spent producing it, excluding the queue wait).
func (p *Pipeline) emitSlice(out chan<- chunk, xs []int64, each func(n int, d time.Duration)) {
	size := p.chunkSize()
	for off := 0; off < len(xs); off += size {
		if p.cancelled() {
			return
		}
		var t0 time.Time
		if each != nil {
			t0 = time.Now()
		}
		n := min(size, len(xs)-off)
		c := p.newChunk()
		c.buf = c.buf[:n]
		copy(c.buf, xs[off:off+n])
		if each != nil {
			each(n, time.Since(t0))
		}
		if !p.send(out, c) {
			return
		}
	}
}

// FromSlice streams xs through the pipeline, copying it into pooled
// chunks; xs is never modified or retained.
func (p *Pipeline) FromSlice(xs []int64) *Pipeline {
	p.addStage("source", kindSource, func(st *stageRec, _ <-chan chunk, out chan<- chunk) {
		defer close(out)
		p.emitSlice(out, xs, func(n int, d time.Duration) {
			st.note(n, d)
			p.sampleOccupancy()
		})
	})
	return p
}

// FromFunc streams n generated elements: element i is f(i), computed
// chunk by chunk with the source's parallel loop. f must be pure.
func (p *Pipeline) FromFunc(n int, f func(i int) int64) *Pipeline {
	if n < 0 {
		p.buildFail(fmt.Errorf("pipeline: FromFunc with n = %d", n))
		return p
	}
	p.addStage("source", kindSource, func(st *stageRec, _ <-chan chunk, out chan<- chunk) {
		defer close(out)
		opts := p.stageOpts(siteSource)
		size := p.chunkSize()
		var (
			buf  []int64
			base int
		)
		body := func(i int) { buf[i] = f(base + i) }
		for off := 0; off < n; off += size {
			if p.cancelled() {
				return
			}
			m := min(size, n-off)
			t0 := time.Now()
			c := p.newChunk()
			c.buf = c.buf[:m]
			if p.serialChunk(m) {
				for i := 0; i < m; i++ {
					c.buf[i] = f(off + i)
				}
			} else {
				buf, base = c.buf, off
				par.For(m, opts, body)
			}
			st.note(m, time.Since(t0))
			p.sampleOccupancy()
			if !p.send(out, c) {
				return
			}
		}
	})
	return p
}

// Map applies f to every element in place. f must be pure.
func (p *Pipeline) Map(f func(int64) int64) *Pipeline {
	p.addStage("map", kindTransform, func(st *stageRec, in <-chan chunk, out chan<- chunk) {
		opts := p.stageOpts(siteMap)
		var buf []int64
		body := func(i int) { buf[i] = f(buf[i]) }
		p.runTransform(st, in, out, func(c chunk) (chunk, bool) {
			if p.serialChunk(len(c.buf)) {
				for i, v := range c.buf {
					c.buf[i] = f(v)
				}
				return c, true
			}
			buf = c.buf
			par.For(len(buf), opts, body)
			return c, true
		}, nil)
	})
	return p
}

// Filter keeps only the elements satisfying pred (stable). pred must
// be pure — the parallel pack evaluates it twice per element.
func (p *Pipeline) Filter(pred func(int64) bool) *Pipeline {
	p.addStage("filter", kindTransform, func(st *stageRec, in <-chan chunk, out chan<- chunk) {
		opts := p.stageOpts(siteFilter)
		p.runTransform(st, in, out, func(c chunk) (chunk, bool) {
			oc := p.newChunk()
			dst := oc.buf[:len(c.buf)]
			var k int
			if p.serialChunk(len(c.buf)) {
				for _, v := range c.buf {
					if pred(v) {
						dst[k] = v
						k++
					}
				}
			} else {
				k = par.PackInto(dst, c.buf, opts, pred)
			}
			p.release(c)
			if k == 0 {
				p.release(oc)
				return chunk{}, false
			}
			oc.buf = dst[:k]
			return oc, true
		}, nil)
	})
	return p
}

// RunningSum replaces every element with the running (inclusive)
// prefix sum of the whole stream — the streaming form of
// par.ScanInclusive, with the carry threaded across chunks.
func (p *Pipeline) RunningSum() *Pipeline {
	p.addStage("runningsum", kindTransform, func(st *stageRec, in <-chan chunk, out chan<- chunk) {
		opts := p.stageOpts(siteScan)
		var carry int64
		add := func(a, b int64) int64 { return a + b }
		p.runTransform(st, in, out, func(c chunk) (chunk, bool) {
			if len(c.buf) == 0 {
				return c, true
			}
			if p.serialChunk(len(c.buf)) {
				acc := carry
				for i, v := range c.buf {
					acc += v
					c.buf[i] = acc
				}
			} else {
				// Fold the carry into the first element: the scan's
				// identity seeds every worker block, so it cannot
				// carry state across chunks.
				c.buf[0] += carry
				par.ScanInclusive(c.buf, c.buf, opts, 0, add)
			}
			carry = c.buf[len(c.buf)-1]
			return c, true
		}, nil)
	})
	return p
}

// Tee calls observe on every chunk as it flows past, unmodified — the
// fan-out hook for side aggregations. observe must not retain or
// mutate the slice.
func (p *Pipeline) Tee(observe func(buf []int64)) *Pipeline {
	p.addStage("tee", kindTransform, func(st *stageRec, in <-chan chunk, out chan<- chunk) {
		p.runTransform(st, in, out, func(c chunk) (chunk, bool) {
			observe(c.buf)
			return c, true
		}, nil)
	})
	return p
}

// Sort re-emits the whole stream in ascending order. It is the
// pipeline's blocking operator — nothing leaves before everything
// arrived — so it gathers the stream into one buffer (doubling through
// the scratch pool, each chunk released once copied) and sorts it with
// one call at end-of-stream. Sorting chunks as they arrive and
// carry-merging the runs bought overlap that never paid for its merges
// and copies: BenchmarkPipelineSortStream read it about a quarter
// slower (BENCHMARKS.md, "The long route"). State is O(stream length),
// the inherent cost of sorting.
func (p *Pipeline) Sort() *Pipeline {
	p.addStage("sort", kindTransform, func(st *stageRec, in <-chan chunk, out chan<- chunk) {
		opts := p.stageOpts(nil) // psort brings its own sites
		var (
			all []int64
			h   scratch.Handle
		)
		defer func() { scratch.Put(h) }()
		p.runTransform(st, in, out, func(c chunk) (chunk, bool) {
			if n := len(all) + len(c.buf); n > cap(all) {
				grown, gh := scratch.GetCap[int64](p.pool(), len(all), max(n, 2*cap(all)))
				copy(grown, all)
				scratch.Put(h)
				all, h = grown, gh
			}
			all = append(all, c.buf...)
			p.release(c)
			return chunk{}, false
		}, func() []int64 {
			p.sortChunk(all, opts)
			return all
		})
	})
	return p
}

// TopK reduces the stream to its k smallest elements, emitted sorted
// at end-of-stream. Candidates accumulate in a bounded buffer that is
// pruned back to k with psel.Select whenever it fills, so state is
// O(k + ChunkSize) regardless of stream length. The prune runs inside
// the stage's own adaptive region with the controller passed through —
// the reentrancy guard keeps psel's inner sites from recording there.
func (p *Pipeline) TopK(k int) *Pipeline {
	if k <= 0 {
		p.buildFail(fmt.Errorf("pipeline: TopK with k = %d", k))
		return p
	}
	p.addStage("topk", kindTransform, func(st *stageRec, in <-chan chunk, out chan<- chunk) {
		opts := p.stageOpts(nil)
		bound := k + max(k, p.chunkSize())
		cand, candH := scratch.GetCap[int64](p.pool(), 0, bound+p.chunkSize())
		defer scratch.Put(candH)
		prune := func() {
			if len(cand) <= k {
				return
			}
			tuned, m := par.BeginAdaptive(siteTopK, len(cand), p.stageOpts(siteTopK))
			tuned.Adaptive = p.cfg.Opts.Adaptive // nested sites stay quiet (reentrancy guard)
			v := psel.Select(cand, k-1, tuned)
			m.Done()
			// Keep everything below the k-th value, then pad with
			// copies of it: exactly the k smallest as a multiset.
			w := 0
			for _, x := range cand {
				if x < v {
					cand[w] = x
					w++
				}
			}
			for ; w < k; w++ {
				cand[w] = v
			}
			cand = cand[:k]
		}
		p.runTransform(st, in, out, func(c chunk) (chunk, bool) {
			cand = append(cand, c.buf...)
			p.release(c)
			if len(cand) > bound {
				prune()
			}
			return chunk{}, false
		}, func() []int64 {
			prune()
			p.sortChunk(cand, opts)
			return cand
		})
	})
	return p
}

// sortChunk sorts buf with the parallel sorter, or the sequential
// baseline when the pipeline's Options ask for serial chunks (psort
// reads Procs but not SerialCutoff).
func (p *Pipeline) sortChunk(buf []int64, opts par.Options) {
	if p.serialChunk(len(buf)) {
		seq.Quicksort(buf)
		return
	}
	psort.SampleSort(buf, opts)
}

// To appends the whole stream to *dst, in order.
func (p *Pipeline) To(dst *[]int64) *Pipeline {
	p.addStage("collect", kindSink, func(st *stageRec, in <-chan chunk, _ chan<- chunk) {
		p.runSink(st, in, func(buf []int64) error {
			*dst = append(*dst, buf...)
			return nil
		})
	})
	return p
}

// ToFunc hands every chunk to fn in stream order. A non-nil error
// cancels the pipeline and becomes Run's return value. fn must not
// retain buf — the buffer is recycled after the call.
func (p *Pipeline) ToFunc(fn func(buf []int64) error) *Pipeline {
	p.addStage("sink", kindSink, func(st *stageRec, in <-chan chunk, _ chan<- chunk) {
		p.runSink(st, in, fn)
	})
	return p
}

// ToHistogram accumulates a running histogram of the stream into out
// (len(out) buckets, fully overwritten at Run start). bucket must be
// pure and return values in [0, len(out)).
func (p *Pipeline) ToHistogram(out []int, bucket func(int64) int) *Pipeline {
	p.addStage("histogram", kindSink, func(st *stageRec, in <-chan chunk, _ chan<- chunk) {
		opts := p.stageOpts(siteHist)
		clear(out)
		tmp, h := scratch.Get[int](p.pool(), len(out))
		defer scratch.Put(h)
		p.runSink(st, in, func(buf []int64) error {
			if p.serialChunk(len(buf)) {
				for _, v := range buf {
					out[bucket(v)]++
				}
				return nil
			}
			par.HistogramInto(tmp, buf, opts, bucket)
			for i, v := range tmp {
				out[i] += v
			}
			return nil
		})
	})
	return p
}

// ToSum accumulates the running sum of the stream into *out
// (overwritten at Run start).
func (p *Pipeline) ToSum(out *int64) *Pipeline {
	p.addStage("sum", kindSink, func(st *stageRec, in <-chan chunk, _ chan<- chunk) {
		opts := p.stageOpts(siteSum)
		*out = 0
		add := func(a, b int64) int64 { return a + b }
		var buf []int64
		body := func(i int) int64 { return buf[i] }
		p.runSink(st, in, func(b []int64) error {
			if p.serialChunk(len(b)) {
				var acc int64
				for _, v := range b {
					acc += v
				}
				*out += acc
				return nil
			}
			buf = b
			*out += par.Reduce(len(b), opts, 0, add, body)
			return nil
		})
	})
	return p
}

// Discard consumes the stream, counting it in Stats but keeping
// nothing — the sink for pipelines whose aggregations live in Tee
// observers.
func (p *Pipeline) Discard() *Pipeline {
	p.addStage("discard", kindSink, func(st *stageRec, in <-chan chunk, _ chan<- chunk) {
		p.runSink(st, in, func([]int64) error { return nil })
	})
	return p
}

// buildFail records the first build error (returned by Run).
func (p *Pipeline) buildFail(err error) {
	if p.buildErr == nil {
		p.buildErr = err
	}
}
