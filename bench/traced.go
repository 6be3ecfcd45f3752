package main

import (
	"fmt"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/rescache"
	"repro/internal/scratch"
	"repro/internal/serve"
	"repro/internal/wire"
)

// snapshot is every counter the traced stack exposes, read through
// its layers' public Stats.
type snapshot struct {
	serve            serve.ShardedStats
	tenants          []serve.TenantStats
	wire             wire.Stats
	cache            rescache.Stats
	scratch          scratch.Stats
	steals, attempts int64
	mem              runtime.MemStats
}

func (st *stack) snapshot() *snapshot {
	s := &snapshot{
		serve:   st.sh.Stats(),
		tenants: st.sh.TenantStats(),
		cache:   st.cache.Stats(),
		scratch: scratch.Default().Stats(),
	}
	if st.ln != nil {
		s.wire = st.ln.Stats()
	}
	ex := st.sh.Executors()
	for i := range ex.Shards() {
		s.steals += ex.Shard(i).Steals()
		s.attempts += ex.Shard(i).StealAttempts()
	}
	runtime.ReadMemStats(&s.mem)
	return s
}

// occupancy samples the stack's executors every 10 ms until stop is
// closed and sends the mean.
func (st *stack) occupancy(stop <-chan struct{}, mean chan<- float64) {
	tick := time.NewTicker(10 * time.Millisecond)
	defer tick.Stop()
	var sum float64
	n := 0
	for {
		select {
		case <-stop:
			mean <- ratio(sum, float64(n))
			return
		case <-tick.C:
			sum += st.sh.Executors().Occupancy()
			n++
		}
	}
}

// runTraced measures the per-layer metrics. The measured time is
// split three ways: a quarter goes to an untraced reference window on
// the real target (the base of trace.overhead_frac, and where the
// load generator's own CPU and the server's memory are read), half to
// the traced window on the in-process stack, and the isolated codec
// and cache phases, which are count-based, take the rest.
func runTraced(w *workload, o options) result {
	ref, err := prepare(w, o, nil)
	if err != nil {
		return result{err: err}
	}
	cpu0 := selfCPU()
	refWin := ref.run(o.window/4, 1)
	clientCPU := selfCPU() - cpu0
	pid := "self"
	if ch := ref.tg.child; ch != nil {
		pid = strconv.Itoa(ch.cmd.Process.Pid)
	}
	rss, err := rssMB(pid)
	if err != nil {
		ref.tg.close()
		return result{err: err}
	}
	if err := ref.tg.close(); err != nil {
		return result{err: err}
	}
	refLat, _, _ := okLatencies(refWin)
	if refWin.err != nil || len(refLat) == 0 {
		return result{err: fmt.Errorf("reference window: %w", refWin.err)}
	}

	t := theTracer()
	callers := callersOf(w)
	// Room for twice the reference window's rate over the traced
	// window; past that the buffers grow.
	t.reset(callers, 2*2*len(refWin.samples)/callers+1024)
	l, err := prepare(w, o, t)
	if err != nil {
		return result{err: err}
	}
	st := l.tg.stack
	before := st.snapshot()
	stop, occ := make(chan struct{}), make(chan float64)
	go st.occupancy(stop, occ)
	win := l.run(o.window/2, 1)
	close(stop)
	occupancy := <-occ
	after := st.snapshot()
	r := result{attempted: len(win.samples), failed: win.failed(), err: win.err}
	r.closed(l.tg.close())
	end := scratch.Default().Stats()

	iso, err := isolate(ref.p)
	if err != nil {
		return result{err: err}
	}

	spans := t.all()
	self := selfTimes(spans)
	if err := writeTrace(o.outDir, w.name, spans); err != nil {
		return result{err: err}
	}

	m := metrics{}
	lat, short, long := okLatencies(win)
	ops := float64(len(lat))
	wall := float64(win.ticks[len(win.ticks)-1].at-win.ticks[0].at) / 1e9

	m["client.lat_mean_us"] = mean(lat)
	m["client.lat_p99_us"] = tailOrZero(lat, 99)
	m["client.lat_p999_us"] = tailOrZero(lat, 99.9)
	m["client.lat_samples"] = ops
	m["client.short_lat_p50_us"] = percentile(short, 50)
	m["client.long_lat_p50_us"] = percentile(long, 50)
	m["client.prep_us_mean"] = ratio(float64(win.prepNs)/us, float64(len(win.samples)))
	m["client.cpu_us_per_op"] = ratio(float64(clientCPU)/us, float64(len(refLat)))

	// Per-kind self times and durations, in microseconds.
	var selfUs, durUs [numSpanKinds][]float64
	var elems [numSpanKinds]float64
	for i, sp := range spans {
		selfUs[sp.kind] = append(selfUs[sp.kind], float64(self[i])/us)
		durUs[sp.kind] = append(durUs[sp.kind], float64(sp.end-sp.start)/us)
		elems[sp.kind] += float64(sp.elems)
	}
	for k := range selfUs {
		sort.Float64s(selfUs[k])
		sort.Float64s(durUs[k])
	}
	total := sum(durUs[spanClient])
	m["trace.spans"] = float64(len(spans))
	m["trace.overhead_frac"] = ratio(m["client.lat_mean_us"], mean(refLat)) - 1
	m["trace.wire_share"] = ratio(sum(selfUs[spanClient]), total)
	m["trace.serve_share"] = ratio(sum(selfUs[spanServe]), total)
	m["trace.kernel_share"] = ratio(sum(durUs[spanKernel]), total)
	m["trace.pipeline_share"] = ratio(sum(durUs[spanPipeline]), total)

	m["wire.self_us_mean"] = mean(selfUs[spanClient])
	m["wire.self_us_p50"] = percentile(selfUs[spanClient], 50)
	m["wire.self_us_p90"] = percentile(selfUs[spanClient], 90)
	m["wire.encode_req_ns"] = iso.encodeReq
	m["wire.decode_req_ns"] = iso.decodeReq
	m["wire.encode_resp_ns"] = iso.encodeResp
	m["wire.decode_resp_ns"] = iso.decodeResp
	m["wire.codec_share"] = ratio((iso.encodeReq+iso.decodeReq+iso.encodeResp+iso.decodeResp)/us, m["wire.self_us_mean"])
	m["wire.req_bytes_mean"] = iso.reqBytes
	m["wire.resp_bytes_mean"] = iso.respBytes
	m["wire.requests"] = float64(after.wire.Requests - before.wire.Requests)
	m["wire.responses"] = float64(after.wire.Responses - before.wire.Responses)
	m["wire.errors"] = float64(after.wire.Errors - before.wire.Errors)
	m["wire.chunks"] = float64(after.wire.Chunks - before.wire.Chunks)
	m["wire.chunks_per_streamed_resp"] = ratio(m["wire.chunks"], float64(len(long)))
	if w.embed {
		// No socket: the client span is the serve span plus two clock
		// reads, and the codec never runs.
		m["wire.codec_share"] = 0
	}

	sa, sb := after.serve.Aggregate, before.serve.Aggregate
	completed := float64(sa.Completed - sb.Completed)
	batches := float64(sa.Batches - sb.Batches)
	m["serve.self_us_mean"] = mean(selfUs[spanServe])
	m["serve.self_us_p50"] = percentile(selfUs[spanServe], 50)
	m["serve.self_us_p90"] = percentile(selfUs[spanServe], 90)
	m["serve.accepted"] = float64(sa.Accepted - sb.Accepted)
	m["serve.completed"] = completed
	m["serve.rejected"] = float64(sa.Rejected - sb.Rejected)
	m["serve.deadline_rejected"] = float64(sa.DeadlineRejected - sb.DeadlineRejected)
	m["serve.expired"] = float64(sa.Expired - sb.Expired)
	m["serve.batches"] = batches
	m["serve.reqs_per_batch"] = ratio(float64(sa.BatchedRequests-sb.BatchedRequests), batches)
	m["serve.max_batch"] = float64(sa.MaxBatch)
	m["serve.serial_batch_frac"] = ratio(float64(sa.SerialBatches-sb.SerialBatches), batches)
	m["serve.shed"] = float64(sa.Shed - sb.Shed)
	m["serve.degraded"] = float64(sa.Degraded - sb.Degraded)
	m["serve.pipelined"] = float64(sa.Pipelined - sb.Pipelined)
	m["serve.cache_hits"] = float64(sa.CacheHits - sb.CacheHits)
	m["serve.cache_misses"] = float64(sa.CacheMisses - sb.CacheMisses)
	m["serve.migrations"] = float64(after.serve.Migrations - before.serve.Migrations)
	m["serve.migrated"] = float64(after.serve.Migrated - before.serve.Migrated)
	m["serve.offhome_frac"] = ratio(m["serve.migrated"], completed)
	served := func(s *snapshot, tenant string) (n float64) {
		for _, ts := range s.tenants {
			if tenant == "" || ts.Name == tenant {
				n += float64(ts.Completed + ts.CacheHits)
			}
		}
		return n
	}
	m["serve.hot_completed_share"] = ratio(served(after, "hot")-served(before, "hot"), served(after, "")-served(before, ""))

	hits := float64(after.cache.Hits - before.cache.Hits)
	misses := float64(after.cache.Misses - before.cache.Misses)
	m["rescache.hit_frac"] = ratio(hits, hits+misses)
	m["rescache.inserts"] = float64(after.cache.Inserts - before.cache.Inserts)
	m["rescache.evictions"] = float64(after.cache.Evictions - before.cache.Evictions)
	m["rescache.entries_end"] = float64(after.cache.Entries)
	m["rescache.bytes_end"] = float64(after.cache.Bytes)
	m["rescache.lookup_hit_ns"] = iso.lookupHit
	m["rescache.lookup_miss_ns"] = iso.lookupMiss
	m["rescache.insert_ns"] = iso.insert

	busy := sum(durUs[spanKernel])
	m["kernel.run_us_mean"] = mean(durUs[spanKernel])
	m["kernel.run_us_p50"] = percentile(durUs[spanKernel], 50)
	m["kernel.run_us_p90"] = percentile(durUs[spanKernel], 90)
	m["kernel.calls"] = float64(len(durUs[spanKernel]))
	m["kernel.melems_per_s"] = ratio(elems[spanKernel], busy)
	m["kernel.busy_frac"] = ratio(busy/1e6, wall*serverWorkers)
	m["pipeline.calls"] = float64(len(durUs[spanPipeline]))
	m["pipeline.stream_us_p50"] = percentile(durUs[spanPipeline], 50)
	m["pipeline.stream_melems_per_s"] = ratio(elems[spanPipeline], sum(durUs[spanPipeline]))

	gets := float64(after.scratch.Hits-before.scratch.Hits) + float64(after.scratch.Misses-before.scratch.Misses)
	m["exec.steals"] = float64(after.steals - before.steals)
	m["exec.steal_attempts"] = float64(after.attempts - before.attempts)
	m["exec.occupancy_mean"] = occupancy
	m["scratch.hit_frac"] = ratio(float64(after.scratch.Hits-before.scratch.Hits), gets)
	m["scratch.bypasses"] = float64(after.scratch.Bypasses - before.scratch.Bypasses)
	m["scratch.pooled_bytes_end"] = float64(end.BytesPooled)
	m["scratch.live_bytes_end"] = float64(end.BytesLive)

	m["proc.server_rss_mb"] = rss
	m["proc.allocs_per_op"] = ratio(float64(after.mem.Mallocs-before.mem.Mallocs), ops)
	m["proc.alloc_bytes_per_op"] = ratio(float64(after.mem.TotalAlloc-before.mem.TotalAlloc), ops)
	m["proc.gc_cycles"] = float64(after.mem.NumGC - before.mem.NumGC)

	r.m = m
	if r.err == nil {
		r.err = sized(w, m)
	}
	return r
}

// sized checks that the traced run exercised what the workload's
// design says it exercises; a workload that drifted from its purpose
// fails instead of quietly measuring something else.
func sized(w *workload, m metrics) error {
	var bad []string
	want := func(ok bool, what string) {
		if !ok {
			bad = append(bad, what)
		}
	}
	streams := m["serve.pipelined"] > 0 && m["wire.chunks"] > 0
	switch w.name {
	case "wire_small_uniq":
		want(m["rescache.hit_frac"] <= 0.01, "rescache.hit_frac <= 0.01")
	case "wire_repeat_hot":
		want(m["rescache.hit_frac"] >= 0.99, "rescache.hit_frac >= 0.99")
	case "wire_bulk":
		want(streams, "serve.pipelined > 0 and wire.chunks > 0")
	case "embed_skew":
		want(m["wire.requests"] == 0, "wire.requests == 0")
		want(m["serve.reqs_per_batch"] >= 8, "serve.reqs_per_batch >= 8")
		want(m["serve.offhome_frac"] > 0.3, "serve.offhome_frac > 0.3")
	}
	if w.name != "wire_bulk" {
		want(m["serve.pipelined"] == 0 && m["wire.chunks"] == 0, "no pipelined or chunked reply")
	}
	want(m["serve.rejected"]+m["serve.deadline_rejected"]+m["serve.expired"] == 0, "no refusal or expiry")
	if bad != nil {
		return fmt.Errorf("%s is off its design: want %s", w.name, strings.Join(bad, "; "))
	}
	return nil
}
