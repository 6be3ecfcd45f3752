package pipeline

import (
	"fmt"
	"sort"
	"testing"
	"time"

	"repro/internal/adapt"
	"repro/internal/gen"
	"repro/internal/par"
	"repro/internal/racecheck"
	"repro/internal/scratch"
)

// input builds a deterministic, duplicate-rich test stream.
func input(n int) []int64 {
	xs := make([]int64, n)
	for i := range xs {
		xs[i] = int64(i*2654435761) % 9973
	}
	return xs
}

// oracle computes the one-shot composition the pipeline must match:
// map, filter, sort — plus the histogram and sum of the survivors.
func oracle(xs []int64, mapF func(int64) int64, pred func(int64) bool,
	buckets int, bucket func(int64) int) (sorted []int64, hist []int, sum int64) {
	for _, v := range xs {
		v = mapF(v)
		if pred(v) {
			sorted = append(sorted, v)
		}
	}
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	hist = make([]int, buckets)
	for _, v := range sorted {
		hist[bucket(v)]++
		sum += v
	}
	return sorted, hist, sum
}

func eq64(t *testing.T, what string, got, want []int64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: len %d, want %d", what, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: [%d] = %d, want %d", what, i, got[i], want[i])
		}
	}
}

// exploring returns a mid-exploration controller so repeated chunks
// sample different candidates while results must stay identical.
func exploring() *adapt.Controller {
	return adapt.New(adapt.Config{Epsilon: 1, ConvergeAfter: 1 << 30, Seed: 31415})
}

// matrix is the pipeline configuration axis: chunk sizes from
// adversarially tiny to larger than the stream, queue depths including
// 1 (max backpressure), serial and parallel intra-chunk work, scratch
// on/off, and the adaptive runtime mid-exploration.
func matrix() []Config {
	var out []Config
	for _, cs := range []int{1, 3, 64, 1021, 8192} {
		for _, qd := range []int{1, 4} {
			out = append(out, Config{ChunkSize: cs, QueueDepth: qd,
				Opts: par.Options{Procs: 4, SerialCutoff: 1, Grain: 32}})
		}
	}
	out = append(out,
		Config{ChunkSize: 512, Opts: par.Options{Procs: 1}},
		Config{ChunkSize: 512, Opts: par.Options{Procs: 4, SerialCutoff: 512}},
		Config{ChunkSize: 512, Opts: par.Options{Procs: 4, SerialCutoff: 1, Scratch: scratch.Off}},
		Config{ChunkSize: 512, Opts: par.Options{Procs: 4, SerialCutoff: 1, Policy: par.Dynamic}},
		Config{ChunkSize: 512, Opts: par.Options{Procs: 4, Adaptive: exploring()}},
	)
	return out
}

func cfgName(c Config) string {
	name := fmt.Sprintf("cs%d/qd%d/p%d", c.ChunkSize, c.QueueDepth, c.Opts.Procs)
	if c.Opts.Scratch == scratch.Off {
		name += "/noscratch"
	}
	if c.Opts.Adaptive != nil {
		name += "/adaptive"
	}
	if c.Opts.SerialCutoff >= c.ChunkSize && c.ChunkSize > 0 {
		name += "/serialchunk"
	}
	return name
}

// TestPipelineVsOneShot is the core differential test: the full
// analytics chain (map → filter → sort → collect + tee'd histogram and
// sum) against the one-shot composition, across the config matrix and
// several stream lengths including empty, single, odd, and
// not-a-multiple-of-chunk sizes.
func TestPipelineVsOneShot(t *testing.T) {
	mapF := func(v int64) int64 { return v*3 + 1 }
	pred := func(v int64) bool { return v&3 != 0 }
	const buckets = 64
	bucket := func(v int64) int { return int(uint64(v) % buckets) }

	sizes := []int{0, 1, 5, 1021, 30000}
	if testing.Short() {
		sizes = []int{0, 1, 5, 1021, 6000}
	}
	for _, cfg := range matrix() {
		t.Run(cfgName(cfg), func(t *testing.T) {
			for _, n := range sizes {
				xs := input(n)
				wantSorted, wantHist, wantSum := oracle(xs, mapF, pred, buckets, bucket)

				var got []int64
				hist := make([]int, buckets)
				var sum int64
				p := New(cfg).FromSlice(xs).Map(mapF).Filter(pred).Sort().
					Tee(func(buf []int64) {
						for _, v := range buf {
							sum += v
						}
					}).
					ToHistogram(hist, bucket)
				// Histogram is the sink; collect via a second run for the
				// sorted stream itself.
				if err := p.Run(); err != nil {
					t.Fatalf("n=%d: Run: %v", n, err)
				}
				p2 := New(cfg).FromSlice(xs).Map(mapF).Filter(pred).Sort().To(&got)
				if err := p2.Run(); err != nil {
					t.Fatalf("n=%d: Run(collect): %v", n, err)
				}

				eq64(t, fmt.Sprintf("n=%d sorted stream", n), got, wantSorted)
				for b := range hist {
					if hist[b] != wantHist[b] {
						t.Fatalf("n=%d: hist[%d] = %d, want %d", n, b, hist[b], wantHist[b])
					}
				}
				if sum != wantSum {
					t.Fatalf("n=%d: tee sum = %d, want %d", n, sum, wantSum)
				}
			}
		})
	}
}

// TestFromFuncSource checks the generated source against FromSlice.
func TestFromFuncSource(t *testing.T) {
	const n = 10000
	f := func(i int) int64 { return int64(i*i) % 4099 }
	var a, b []int64
	if err := New(Config{ChunkSize: 777}).FromFunc(n, f).To(&a).Run(); err != nil {
		t.Fatal(err)
	}
	xs := make([]int64, n)
	for i := range xs {
		xs[i] = f(i)
	}
	if err := New(Config{ChunkSize: 777}).FromSlice(xs).To(&b).Run(); err != nil {
		t.Fatal(err)
	}
	eq64(t, "FromFunc vs FromSlice", a, b)
}

// TestRunningSumCarry pins the cross-chunk carry: the streaming prefix
// sum over many chunks must equal the one-shot scan.
func TestRunningSumCarry(t *testing.T) {
	const n = 12345
	xs := input(n)
	want := make([]int64, n)
	var acc int64
	for i, v := range xs {
		acc += v
		want[i] = acc
	}
	for _, cs := range []int{1, 7, 512, 8192} {
		var got []int64
		err := New(Config{ChunkSize: cs, Opts: par.Options{Procs: 4, SerialCutoff: 1}}).
			FromSlice(xs).RunningSum().To(&got).Run()
		if err != nil {
			t.Fatal(err)
		}
		eq64(t, fmt.Sprintf("running sum cs=%d", cs), got, want)
	}
}

// TestSortStage drives the sort stage through an empty stream, exactly
// one chunk, and many odd-size chunks (the gather buffer regrows many
// times), and checks full sortedness and multiset equality.
func TestSortStage(t *testing.T) {
	const cs = 1021
	long := 37*cs + 13
	if testing.Short() {
		long = 11*cs + 13
	}
	for _, n := range []int{0, cs, long} {
		xs := input(n)
		want := append([]int64(nil), xs...)
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		var got []int64
		err := New(Config{ChunkSize: cs, Opts: par.Options{Procs: 4, SerialCutoff: 1}}).
			FromSlice(xs).Sort().To(&got).Run()
		if err != nil {
			t.Fatal(err)
		}
		eq64(t, fmt.Sprintf("sort n=%d", n), got, want)
	}
}

// TestTransformBusyIncludesFlush pins that a transform's end-of-stream
// flush counts toward its stage's Busy time (and not toward Chunks or
// Elems): a flush that sleeps 20 ms must leave Busy at 20 ms or more.
func TestTransformBusyIncludesFlush(t *testing.T) {
	const flushFor = 20 * time.Millisecond
	p := New(Config{ChunkSize: 4}).FromSlice(input(10))
	p.addStage("slowflush", kindTransform, func(st *stageRec, in <-chan chunk, out chan<- chunk) {
		p.runTransform(st, in, out, func(c chunk) (chunk, bool) { return c, true }, func() []int64 {
			time.Sleep(flushFor)
			return nil
		})
	})
	if err := p.Discard().Run(); err != nil {
		t.Fatal(err)
	}
	st := p.Stats().Stages[1]
	if st.Busy < flushFor {
		t.Errorf("busy = %v, want >= %v (the flush's sleep)", st.Busy, flushFor)
	}
	if st.Chunks != 3 || st.Elems != 10 {
		t.Errorf("chunks=%d elems=%d, want 3 and 10 (the flush is not a chunk)", st.Chunks, st.Elems)
	}
}

// TestTopK checks the bounded top-k stage against the sorted prefix,
// including duplicate-heavy streams, k larger than the stream, and
// k == n.
func TestTopK(t *testing.T) {
	const n = 20000
	xs := input(n) // duplicate-rich by construction
	want := append([]int64(nil), xs...)
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	for _, k := range []int{1, 10, 4096, n, n + 500} {
		var got []int64
		err := New(Config{ChunkSize: 1024, Opts: par.Options{Procs: 4, SerialCutoff: 1}}).
			FromSlice(xs).TopK(k).To(&got).Run()
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		wantK := want
		if k < n {
			wantK = want[:k]
		}
		eq64(t, fmt.Sprintf("topk k=%d", k), got, wantK)
	}
}

// TestToSum checks the reduce sink.
func TestToSum(t *testing.T) {
	xs := input(9999)
	var want int64
	for _, v := range xs {
		want += v
	}
	var got int64
	if err := New(Config{ChunkSize: 256}).FromSlice(xs).ToSum(&got).Run(); err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("sum = %d, want %d", got, want)
	}
}

// TestBuildErrors pins the builder's shape validation.
func TestBuildErrors(t *testing.T) {
	cases := []struct {
		name string
		p    *Pipeline
	}{
		{"no source", New(Config{}).Map(func(v int64) int64 { return v })},
		{"no sink", New(Config{}).FromSlice([]int64{1})},
		{"empty", New(Config{})},
		{"two sources", New(Config{}).FromSlice([]int64{1}).FromSlice([]int64{2})},
		{"stage after sink", New(Config{}).FromSlice([]int64{1}).Discard().Map(func(v int64) int64 { return v })},
		{"two sinks", New(Config{}).FromSlice([]int64{1}).Discard().Discard()},
		{"bad topk", New(Config{}).FromSlice([]int64{1}).TopK(0).Discard()},
		{"bad fromfunc", New(Config{}).FromFunc(-1, func(int) int64 { return 0 }).Discard()},
	}
	for _, c := range cases {
		if err := c.p.Run(); err == nil {
			t.Errorf("%s: Run succeeded, want error", c.name)
		}
	}
}

// TestRunOnce pins the single-shot contract.
func TestRunOnce(t *testing.T) {
	var got []int64
	p := New(Config{}).FromSlice(input(100)).To(&got)
	if err := p.Run(); err != nil {
		t.Fatal(err)
	}
	if err := p.Run(); err != ErrAlreadyRan {
		t.Fatalf("second Run = %v, want ErrAlreadyRan", err)
	}
}

// TestStats sanity-checks the counters: chunk counts, element flow,
// and wall time.
func TestStats(t *testing.T) {
	const n, cs = 10000, 512
	xs := input(n)
	var got []int64
	p := New(Config{ChunkSize: cs, Opts: par.Options{Procs: 2}}).
		FromSlice(xs).Filter(func(v int64) bool { return v&1 == 0 }).To(&got)
	if err := p.Run(); err != nil {
		t.Fatal(err)
	}
	s := p.Stats()
	wantChunks := int64((n + cs - 1) / cs)
	if s.Chunks != wantChunks {
		t.Errorf("source chunks = %d, want %d", s.Chunks, wantChunks)
	}
	if s.SourceElems != n {
		t.Errorf("source elems = %d, want %d", s.SourceElems, n)
	}
	if s.SinkElems != int64(len(got)) {
		t.Errorf("sink elems = %d, want %d (collected)", s.SinkElems, len(got))
	}
	if s.Wall <= 0 {
		t.Errorf("wall = %v, want > 0", s.Wall)
	}
	if s.Throughput() <= 0 {
		t.Errorf("throughput = %v, want > 0", s.Throughput())
	}
	if len(s.Stages) != 3 {
		t.Fatalf("stages = %d, want 3", len(s.Stages))
	}
	if s.Stages[1].Name != "filter" || s.Stages[1].Elems != n {
		t.Errorf("filter stage stats = %+v, want %d elems", s.Stages[1], n)
	}
}

// TestSteadyStateAllocsPerChunk is the acceptance pin for the
// zero-allocation chunk path: in the steady-traffic configuration
// (serial intra-chunk kernels, pooled scratch), processing more chunks
// must not allocate more — the marginal cost of a chunk is zero
// allocations. Measured as the difference between a long and a short
// run of the same pipeline shape, which cancels the O(stages) per-run
// setup (goroutines, queues, run bookkeeping).
func TestSteadyStateAllocsPerChunk(t *testing.T) {
	if racecheck.Enabled {
		t.Skip("race instrumentation allocates")
	}
	const cs = 1024
	cfg := Config{ChunkSize: cs, QueueDepth: 2,
		Opts: par.Options{Procs: 4, SerialCutoff: cs}}
	mapF := func(v int64) int64 { return v*3 + 1 }
	pred := func(v int64) bool { return v&7 != 0 }
	hist := make([]int, 128)
	bucket := func(v int64) int { return int(uint64(v) % 128) }

	run := func(chunks int) func() {
		xs := input(cs * chunks)
		return func() {
			p := New(cfg).FromSlice(xs).Map(mapF).Filter(pred).RunningSum().
				ToHistogram(hist, bucket)
			if err := p.Run(); err != nil {
				t.Fatal(err)
			}
		}
	}
	short, long := run(16), run(64)
	short() // warm the scratch pool and executor
	long()
	a := testing.AllocsPerRun(10, short)
	b := testing.AllocsPerRun(10, long)
	perChunk := (b - a) / float64(64-16)
	t.Logf("allocs: %d-chunk run %.1f, %d-chunk run %.1f (%.3f allocs/chunk)", 16, a, 64, b, perChunk)
	// 0.05 tolerates at most one stray runtime-internal allocation per
	// ~50 chunks of measurement noise; a real per-chunk allocation
	// (closure frame, buffer, channel box) would read as >= 1.0.
	if perChunk > 0.05 {
		t.Errorf("steady-state chunk processing allocates %.3f allocs/chunk, want 0", perChunk)
	}
}

// TestSortStageSteadyAllocs extends the zero-marginal-allocation pin
// to the sort stage: its gather buffer doubles through the scratch
// pool and every chunk is released once copied, so doubling the stream
// must not add per-chunk allocations. The tolerance is the
// flowing-chunk test's.
func TestSortStageSteadyAllocs(t *testing.T) {
	if racecheck.Enabled {
		t.Skip("race instrumentation allocates")
	}
	const cs = 1024
	cfg := Config{ChunkSize: cs, QueueDepth: 2,
		Opts: par.Options{Procs: 4, SerialCutoff: 1 << 30}}
	run := func(chunks int) func() {
		xs := input(cs * chunks)
		out := make([]int64, 0, len(xs))
		return func() {
			out = out[:0]
			p := New(cfg).FromSlice(xs).Sort().To(&out)
			if err := p.Run(); err != nil {
				t.Fatal(err)
			}
		}
	}
	short, long := run(16), run(32)
	short()
	long()
	long() // second warm pass: the gather buffer's largest slabs
	a := testing.AllocsPerRun(10, short)
	b := testing.AllocsPerRun(10, long)
	perChunk := (b - a) / float64(32-16)
	t.Logf("sort allocs: 16-chunk %.1f, 32-chunk %.1f (%.3f allocs/chunk)", a, b, perChunk)
	if perChunk > 0.05 {
		t.Errorf("sort stage allocates %.3f allocs/chunk at steady state, want ~0", perChunk)
	}
}

// TestAdaptivePipelineDeterminism runs the same stream twice under a
// mid-exploration controller — different candidate schedules per
// chunk — and requires identical output, the pipeline extension of the
// difftest determinism contract.
func TestAdaptivePipelineDeterminism(t *testing.T) {
	xs := gen.Ints(20000, gen.Uniform, 7)
	ctl := exploring()
	runOnce := func() []int64 {
		var got []int64
		err := New(Config{ChunkSize: 701, Opts: par.Options{Procs: 4, Adaptive: ctl}}).
			FromSlice(xs).Map(func(v int64) int64 { return v >> 3 }).
			Filter(func(v int64) bool { return v&1 == 0 }).Sort().To(&got).Run()
		if err != nil {
			t.Fatal(err)
		}
		return got
	}
	first := runOnce()
	for round := 0; round < 3; round++ {
		eq64(t, fmt.Sprintf("adaptive round %d", round), runOnce(), first)
	}
}
