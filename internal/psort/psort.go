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

// SampleSort sorts xs in place using opts.Procs workers: distribute
// splits the keys into one bucket per worker and quicksorts each
// bucket. All temporaries come from the scratch pool, so repeated
// sorts allocate only their closure frames at steady state.
func SampleSort(xs []int64, opts par.Options) {
	n := len(xs)
	opts, m := par.BeginAdaptive(siteSampleSort, n, opts)
	defer m.Done()
	p := workers(opts, n)
	if p == 1 || n < 2048 {
		seq.Quicksort(xs)
		return
	}
	distribute(xs, p, opts, quicksortLeaf)
}

func quicksortLeaf(bucket, _ []int64) { seq.Quicksort(bucket) }

// distribute is the parallel distribution skeleton SampleSort and
// RadixSort share: splitters drawn from a sample cut the keys into p
// buckets, each worker counts its block's keys per bucket, an
// exclusive scan turns the counts into disjoint output ranges, one
// scatter moves every key into its bucket in buf, and leaf(bucket,
// spare) sorts each bucket, spare being the bucket's own range of xs,
// which the scatter has freed. The slot that ran the leaf copies the
// sorted bucket back into xs. All temporaries — sample, splitters,
// the count matrix and the n-key scatter buffer — come from the scratch
// pool.
func distribute(xs []int64, p int, opts par.Options, leaf func(bucket, spare []int64)) {
	n := len(xs)
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

	// 2. Count phase: each worker histograms its block over the buckets
	// into its own row of counts. A row is p counts and 8 ints (a
	// 64-byte cache line) of padding, so no two workers write one line.
	stride := p + 8
	counts := scratch.Make[int](a, p*stride)
	par.ForWorkers(p, opts, func(w int) {
		c := counts[w*stride : w*stride+p]
		clear(c)
		for _, v := range xs[w*n/p : (w+1)*n/p] {
			c[bucketOf(v, splitters)]++
		}
	})

	// 3. Placement: an exclusive scan in (bucket-major, worker-minor)
	// order turns each count into its (worker, bucket) pair's offset, a
	// disjoint output range, making the scatter race-free and stable.
	bucketStart := scratch.Make[int](a, p+1)
	pos := 0
	for b := 0; b < p; b++ {
		bucketStart[b] = pos
		for w := 0; w < p; w++ {
			c := &counts[w*stride+b]
			*c, pos = pos, pos+*c
		}
	}
	bucketStart[p] = pos

	// 4. Scatter into a scratch buffer.
	buf := scratch.Make[int64](a, n)
	par.ForWorkers(p, opts, func(w int) {
		off := counts[w*stride : w*stride+p]
		for _, v := range xs[w*n/p : (w+1)*n/p] {
			b := bucketOf(v, splitters)
			buf[off[b]] = v
			off[b]++
		}
	})

	// 5. Per-bucket leaves. Bucket sizes vary; Run hands slots out from
	// a shared cursor, so a participant done with a small bucket takes
	// the next one.
	par.ForWorkers(p, opts, func(b int) {
		lo, hi := bucketStart[b], bucketStart[b+1]
		leaf(buf[lo:hi], xs[lo:hi])
		copy(xs[lo:hi], buf[lo:hi])
	})
}

// bucketOf returns the number of splitters at most v, i.e. v's
// bucket. The search window halves a number of times that depends only
// on len(splitters), and each compare's result moves the window's base
// arithmetically, not by a branch, so the cost does not depend on the
// keys (Khuong and Morin, "Array Layouts for Comparison-Based
// Searching", 2017).
func bucketOf(v int64, splitters []int64) int {
	if len(splitters) == 0 {
		return 0
	}
	base := 0
	for n := len(splitters); n > 1; {
		half := n / 2
		base += half & -b2i(splitters[base+half] <= v)
		n -= half
	}
	return base + b2i(splitters[base] <= v)
}

// b2i compiles to a SETcc, not a branch.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
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

// RadixSort sorts xs in place with the serial radix leaf,
// seq.RadixSort: on the whole input at Procs 1 or below 2 048 keys,
// otherwise on each of distribute's buckets, the bucket's range of xs
// serving as the leaf's scatter buffer. The splitters stand in for the
// top digits, so each leaf sorts a p-th of the keys over a narrower
// range. The count → prefix sum → scatter skeleton is sample sort's,
// which is why the methodology treats it as the fundamental parallel
// pattern.
func RadixSort(xs []int64, opts par.Options) {
	n := len(xs)
	opts, m := par.BeginAdaptive(siteRadixSort, n, opts)
	defer m.Done()
	p := workers(opts, n)
	if p == 1 || n < 2048 {
		// The serial leaf scatters through the arena's buffer too: this
		// is the path the radix variant takes inside every serve batch
		// slot, where a per-call make would break the zero-allocation
		// steady state.
		a := scratch.AcquireArena(opts.ScratchPool())
		defer a.Release()
		seq.RadixSort(xs, scratch.Make[int64](a, n))
		return
	}
	distribute(xs, p, opts, seq.RadixSort)
}

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
