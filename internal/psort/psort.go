package psort

import (
	"sort"

	"repro/internal/adapt"
	"repro/internal/exec"
	"repro/internal/par"
	"repro/internal/rng"
	"repro/internal/scratch"
	"repro/internal/seq"
)

// oversample is the number of random samples drawn per splitter; larger
// values even out bucket sizes at the cost of splitter-selection time.
const oversample = 32

// Adaptive call sites: each sort is one decision covering its whole
// count/scan/scatter pipeline — the controller tunes the worker count
// (and for merge sort the leaf grain) per input-size class, and sheds
// parallelism when the executor is busy with other requests.
var (
	siteSampleSort = adapt.NewSite("psort.SampleSort", adapt.KindWorkers)
	siteMergeSort  = adapt.NewSite("psort.MergeSort", adapt.KindRange)
	siteRadixSort  = adapt.NewSite("psort.RadixSort", adapt.KindWorkers)
)

// SampleSort sorts xs in place using opts.Procs workers. All
// temporaries — sample, splitters, the p×p count/offset matrices and
// the n-element scatter buffer — come from the scratch pool, so
// repeated sorts allocate nothing at steady state.
func SampleSort(xs []int64, opts par.Options) {
	n := len(xs)
	opts, m := par.BeginAdaptive(siteSampleSort, n, opts)
	defer m.Done()
	p := workers(opts, n)
	if p == 1 || n < 2048 {
		seq.Quicksort(xs)
		return
	}
	a := scratch.AcquireArena(opts.ScratchPool())
	defer a.Release()

	// 1. Splitter selection: sort a random sample, take p-1 regular
	// splitters. Deterministic seed keeps runs reproducible.
	r := rng.New(uint64(n)*0x9E3779B9 + uint64(p))
	sample := scratch.Make[int64](a, p*oversample)
	for i := range sample {
		sample[i] = xs[r.Intn(n)]
	}
	seq.Quicksort(sample)
	splitters := scratch.Make[int64](a, p-1)
	for i := 1; i < p; i++ {
		splitters[i-1] = sample[i*oversample]
	}

	// 2. Count phase: each worker histograms its block over the buckets.
	// counts is a flat p×p matrix (row = worker, column = bucket).
	counts := scratch.Make[int](a, p*p)
	par.ForWorkers(p, opts, func(w int) {
		lo, hi := w*n/p, (w+1)*n/p
		c := counts[w*p : (w+1)*p]
		clear(c)
		for i := lo; i < hi; i++ {
			c[bucketOf(xs[i], splitters)]++
		}
	})

	// 3. Placement: exclusive scan in (bucket-major, worker-minor) order
	// gives every (worker, bucket) pair a disjoint output range, making
	// the scatter phase write-race-free and stable.
	offsets := scratch.Make[int](a, p*p)
	pos := 0
	bucketStart := scratch.Make[int](a, p+1)
	for b := 0; b < p; b++ {
		bucketStart[b] = pos
		for w := 0; w < p; w++ {
			offsets[w*p+b] = pos
			pos += counts[w*p+b]
		}
	}
	bucketStart[p] = pos

	// 4. Scatter into a scratch buffer.
	buf := scratch.Make[int64](a, n)
	par.ForWorkers(p, opts, func(w int) {
		lo, hi := w*n/p, (w+1)*n/p
		off := offsets[w*p : (w+1)*p]
		for i := lo; i < hi; i++ {
			b := bucketOf(xs[i], splitters)
			buf[off[b]] = xs[i]
			off[b]++
		}
	})

	// 5. Per-bucket sorts, dynamically scheduled: bucket sizes vary, so
	// dynamic scheduling absorbs the residual imbalance.
	par.For(p, par.Options{Procs: p, Policy: par.Dynamic, Grain: 1, SerialCutoff: 1,
		Executor: opts.Executor, Scratch: opts.Scratch}, func(b int) {
		seq.Quicksort(buf[bucketStart[b]:bucketStart[b+1]])
	})
	copy(xs, buf)
}

// bucketOf returns the index of the first splitter greater than v (binary
// search), i.e. the destination bucket.
func bucketOf(v int64, splitters []int64) int {
	lo, hi := 0, len(splitters)
	for lo < hi {
		mid := (lo + hi) / 2
		if v < splitters[mid] {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// MergeSort sorts xs in place with a fork/join merge sort whose merges
// use the parallel merge-path primitive. grain below which it falls back
// to the sequential quicksort is taken from opts.Grain (default 4096).
func MergeSort(xs []int64, opts par.Options) {
	n := len(xs)
	opts, m := par.BeginAdaptive(siteMergeSort, n, opts)
	defer m.Done()
	p := workers(opts, n)
	grain := opts.Grain
	if grain <= 0 {
		grain = 4096
	}
	if p == 1 || n <= grain {
		seq.Quicksort(xs)
		return
	}
	a := scratch.AcquireArena(opts.ScratchPool())
	defer a.Release()
	buf := scratch.Make[int64](a, n)
	e := opts.Executor
	if e == nil {
		e = exec.Default()
	}
	mergeSortRec(xs, buf, p, grain, e, opts.Scratch)
}

// mergeSortRec sorts xs using buf as scratch; result lands in xs.
// procs is the parallelism budget for this subtree. The two halves are
// forked as slots of one executor Run — the caller sorts one half
// itself and a pooled helper (when one is free) sorts the other, so
// the recursion spawns no goroutines and degrades to sequential
// execution when the pool is saturated.
func mergeSortRec(xs, buf []int64, procs, grain int, e *exec.Executor, sp *scratch.Pool) {
	n := len(xs)
	if procs <= 1 || n <= grain {
		seq.Quicksort(xs)
		return
	}
	mid := n / 2
	e.Run(2, func(half int) {
		if half == 0 {
			mergeSortRec(xs[mid:], buf[mid:], procs-procs/2, grain, e, sp)
		} else {
			mergeSortRec(xs[:mid], buf[:mid], procs/2, grain, e, sp)
		}
	})
	// Parallel stable merge into buf, then copy back. grain doubles as
	// the merge's serial cutoff: below it the recursion already ran
	// sequentially, so the merge should too.
	par.Merge(buf, xs[:mid], xs[mid:],
		par.Options{Procs: procs, Grain: grain, SerialCutoff: grain, Executor: e, Scratch: sp},
		func(a, b int64) bool { return a < b })
	copyParallel(xs, buf, procs, e, sp)
}

func copyParallel(dst, src []int64, procs int, e *exec.Executor, sp *scratch.Pool) {
	par.ForRange(len(src), par.Options{Procs: procs, Grain: 1 << 16, SerialCutoff: 1 << 16,
		Executor: e, Scratch: sp}, func(lo, hi int) {
		copy(dst[lo:hi], src[lo:hi])
	})
}

// RadixSort sorts xs in place with a parallel LSD radix sort using 8-bit
// digits. Each pass histograms per worker, computes (digit-major,
// worker-minor) offsets so the scatter is stable and race-free, then
// scatters — the same count/scan/scatter skeleton as sample sort, which
// is why the methodology treats "counting + prefix sums + scatter" as the
// fundamental parallel pattern.
func RadixSort(xs []int64, opts par.Options) {
	n := len(xs)
	opts, m := par.BeginAdaptive(siteRadixSort, n, opts)
	defer m.Done()
	p := workers(opts, n)
	a := scratch.AcquireArena(opts.ScratchPool())
	defer a.Release()
	buf := scratch.Make[int64](a, n)
	if p == 1 || n < 2048 {
		// The serial leaf scatters through the arena's buffer too: this
		// is the path the radix variant takes inside every serve batch
		// slot, where a per-call make would break the zero-allocation
		// steady state.
		seq.RadixSort(xs, buf)
		return
	}
	const bits = 8
	const buckets = 1 << bits
	const mask = buckets - 1
	src, dst := xs, buf
	// counts is a flat p×buckets matrix (row = worker, column = digit).
	counts := scratch.Make[int](a, p*buckets)
	for shift := 0; shift < 64; shift += bits {
		// Count phase.
		par.ForWorkers(p, opts, func(w int) {
			c := counts[w*buckets : (w+1)*buckets]
			clear(c)
			lo, hi := w*n/p, (w+1)*n/p
			for i := lo; i < hi; i++ {
				c[(flip(src[i])>>shift)&mask]++
			}
		})
		// Skip degenerate passes (all keys share the digit).
		first := (flip(src[0]) >> shift) & mask
		allSame := true
		for w := 0; w < p && allSame; w++ {
			for b := 0; b < buckets; b++ {
				if counts[w*buckets+b] != 0 && uint64(b) != first {
					allSame = false
					break
				}
			}
		}
		if allSame {
			continue
		}
		// Offsets: digit-major, worker-minor exclusive scan.
		pos := 0
		for b := 0; b < buckets; b++ {
			for w := 0; w < p; w++ {
				counts[w*buckets+b], pos = pos, pos+counts[w*buckets+b]
			}
		}
		// Scatter phase.
		par.ForWorkers(p, opts, func(w int) {
			lo, hi := w*n/p, (w+1)*n/p
			off := counts[w*buckets : (w+1)*buckets]
			for i := lo; i < hi; i++ {
				b := (flip(src[i]) >> shift) & mask
				dst[off[b]] = src[i]
				off[b]++
			}
		})
		src, dst = dst, src
	}
	if &src[0] != &xs[0] {
		copy(xs, src)
	}
}

func flip(v int64) uint64 { return uint64(v) ^ (1 << 63) }

// IsSortedParallel verifies order with a parallel reduction; used by the
// harness to validate outputs without serial bottleneck.
func IsSortedParallel(xs []int64, opts par.Options) bool {
	if len(xs) < 2 {
		return true
	}
	violations := par.Count(len(xs)-1, opts, func(i int) bool { return xs[i] > xs[i+1] })
	return violations == 0
}

// Sorter names one sorting implementation for the experiment tables.
type Sorter struct {
	Name string
	Sort func(xs []int64, opts par.Options)
}

// Sorters lists the parallel sorters plus sequential baselines, in the
// row order of experiment E2.
var Sorters = []Sorter{
	{"seq-quicksort", func(xs []int64, _ par.Options) { seq.Quicksort(xs) }},
	{"seq-mergesort", func(xs []int64, _ par.Options) { seq.Mergesort(xs) }},
	{"seq-radix", func(xs []int64, _ par.Options) { seq.RadixSort(xs, nil) }},
	{"samplesort", SampleSort},
	{"mergesort", MergeSort},
	{"radix", RadixSort},
	{"counting", CountingSort},
	{"stdlib", func(xs []int64, _ par.Options) {
		sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
	}},
}

func workers(opts par.Options, n int) int {
	p := opts.Procs
	if p <= 0 {
		p = defaultProcs()
	}
	if p > n && n > 0 {
		p = n
	}
	return p
}
