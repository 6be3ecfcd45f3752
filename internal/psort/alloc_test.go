package psort

import (
	"runtime"
	"testing"

	"repro/internal/gen"
	"repro/internal/par"
	"repro/internal/racecheck"
	"repro/internal/scratch"
)

// Steady-state allocation caps for the sorts: once the scratch pool is
// warm, a sort may allocate only its O(1) closure frames — the
// n-element double buffers and p×buckets count matrices that used to
// be reallocated per call all come from the pool. (Measured on this
// tree: SampleSort and RadixSort 4–6, MergeSort 9–11 small frames; the
// caps leave headroom for scheduler jitter.)
func TestSortSteadyStateAllocs(t *testing.T) {
	if racecheck.Enabled {
		t.Skip("race instrumentation allocates")
	}
	xs := gen.Ints(1<<16, gen.Uniform, 42)
	narrow := gen.Ints(1<<16, gen.Uniform, 43)
	for i := range narrow {
		narrow[i] &= 0xFFFF
	}
	buf := make([]int64, len(xs))
	cases := []struct {
		name  string
		procs int
		limit float64
		sort  func([]int64, par.Options)
		in    []int64 // nil: the wide keys xs
	}{
		// Both run distribute: three fork/joins and their three closure
		// frames per call, plus straggler-delayed runState recycling.
		{"SampleSort", 4, 12, SampleSort, nil},
		{"RadixSort", 4, 12, RadixSort, nil},
		{"MergeSort", 4, 20, MergeSort, nil},
		// Procs 1 is what every serve batch slot runs: the serial leaves
		// must allocate nothing, scatter buffers included.
		{"SampleSort", 1, 0, SampleSort, nil},
		{"MergeSort", 1, 0, MergeSort, nil},
		{"RadixSort", 1, 0, RadixSort, nil},
		{"CountingSort", 1, 0, CountingSort, nil}, // wide keys: falls back to RadixSort
		// Narrow keys: the counting array itself comes from the pool.
		// This is sort's default for them in a batch slot.
		{"CountingSort/narrow", 1, 0, CountingSort, narrow},
	}
	for _, c := range cases {
		opts := par.Options{Procs: c.procs}
		in := c.in
		if in == nil {
			in = xs
		}
		run := func() {
			copy(buf, in)
			c.sort(buf, opts)
		}
		run() // warm
		if got := testing.AllocsPerRun(10, run); got > c.limit {
			t.Errorf("%s Procs=%d: %.1f allocs/run at steady state, want <= %.0f", c.name, c.procs, got, c.limit)
		}
	}
}

// TestSortScratchBytesReduction checks the headline claim at the sort
// level: with the pool on, steady-state bytes per sort drop by well
// over 90% versus the allocate-per-call baseline (each sort's scatter
// buffer alone is 8n bytes).
func TestSortScratchBytesReduction(t *testing.T) {
	if racecheck.Enabled {
		t.Skip("race instrumentation allocates")
	}
	xs := gen.Ints(1<<15, gen.Uniform, 7)
	buf := make([]int64, len(xs))
	on := par.Options{Procs: 4}
	off := par.Options{Procs: 4, Scratch: scratch.Off}
	measure := func(opts par.Options) float64 {
		run := func() {
			copy(buf, xs)
			SampleSort(buf, opts)
		}
		run()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < 20; i++ {
			run()
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / 20
	}
	got := measure(on)
	base := measure(off)
	t.Logf("SampleSort: %.0f B/call with scratch vs %.0f B/call without", got, base)
	if got > base*0.10 {
		t.Errorf("scratch saves only %.0f%% of bytes, want >= 90%%", 100*(1-got/base))
	}
}
