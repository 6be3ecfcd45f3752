package par

import "repro/internal/scratch"

// PackInto (also known as filter or stream compaction) packs the
// elements of xs satisfying pred into dst, preserving input order, and
// returns how many were written. It is the classic scan application:
// count per block, prefix-sum the counts to find output offsets, then
// copy per block — two passes, fully parallel, stable. The counts and
// offsets come from the scratch pool. dst must not alias xs and must have
// length at least the number of survivors (len(dst) >= len(xs) always
// suffices); it is the steady-state form kernels pair with scratch
// buffers so packing allocates nothing.
//
// pred must be pure (evaluated twice per element in the parallel path).
func PackInto[T any](dst, xs []T, opts Options, pred func(T) bool) int {
	n := len(xs)
	if n == 0 {
		return 0
	}
	p := opts.procs()
	if p > n {
		p = n
	}
	if p == 1 || n <= opts.serialCutoff() {
		k := 0
		for _, x := range xs {
			if pred(x) {
				dst[k] = x
				k++
			}
		}
		return k
	}
	a := scratch.AcquireArena(opts.Scratch)
	defer a.Release()
	counts := scratch.Make[int](a, p)
	offsets := scratch.Make[int](a, p)
	countPred(counts, xs, n, p, opts, pred)
	total := PrefixSumsInto(offsets, counts, Options{Procs: 1})
	if total > len(dst) {
		panic("par: PackInto destination too short")
	}
	scatterPacked(dst, xs, offsets, n, p, opts, pred)
	return total
}

// countPred is the shared count pass: worker w counts its block's
// survivors.
func countPred[T any](counts []int, xs []T, n, p int, opts Options, pred func(T) bool) {
	ForWorkers(p, opts, func(w int) {
		lo := w * n / p
		hi := (w + 1) * n / p
		c := 0
		for i := lo; i < hi; i++ {
			if pred(xs[i]) {
				c++
			}
		}
		counts[w] = c
	})
}

// scatterPacked is the shared fill pass: worker w copies its block's
// survivors to its precomputed output offset.
func scatterPacked[T any](dst, xs []T, offsets []int, n, p int, opts Options, pred func(T) bool) {
	ForWorkers(p, opts, func(w int) {
		lo := w * n / p
		hi := (w + 1) * n / p
		o := offsets[w]
		for i := lo; i < hi; i++ {
			if pred(xs[i]) {
				dst[o] = xs[i]
				o++
			}
		}
	})
}

// PackIndexInto writes the indices i in [0, n) for which pred(i) holds
// into dst in ascending order and returns how many there are (len(dst)
// >= number of matches; n always suffices). It avoids materializing
// values; iterative graph kernels build frontiers with it.
//
// pred must be pure (evaluated twice per index in the parallel path).
func PackIndexInto(dst []int, n int, opts Options, pred func(i int) bool) int {
	if n == 0 {
		return 0
	}
	p := opts.procs()
	if p > n {
		p = n
	}
	if p == 1 || n <= opts.serialCutoff() {
		k := 0
		for i := 0; i < n; i++ {
			if pred(i) {
				dst[k] = i
				k++
			}
		}
		return k
	}
	a := scratch.AcquireArena(opts.Scratch)
	defer a.Release()
	counts := scratch.Make[int](a, p)
	offsets := scratch.Make[int](a, p)
	countIndex(counts, n, p, opts, pred)
	total := PrefixSumsInto(offsets, counts, Options{Procs: 1})
	if total > len(dst) {
		panic("par: PackIndexInto destination too short")
	}
	scatterIndex(dst, offsets, n, p, opts, pred)
	return total
}

func countIndex(counts []int, n, p int, opts Options, pred func(i int) bool) {
	ForWorkers(p, opts, func(w int) {
		lo := w * n / p
		hi := (w + 1) * n / p
		c := 0
		for i := lo; i < hi; i++ {
			if pred(i) {
				c++
			}
		}
		counts[w] = c
	})
}

func scatterIndex(dst []int, offsets []int, n, p int, opts Options, pred func(i int) bool) {
	ForWorkers(p, opts, func(w int) {
		lo := w * n / p
		hi := (w + 1) * n / p
		o := offsets[w]
		for i := lo; i < hi; i++ {
			if pred(i) {
				dst[o] = i
				o++
			}
		}
	})
}

// HistogramInto counts occurrences of bucket(x) in [0, len(out)) over
// xs into out (fully overwritten) using per-worker private histograms
// merged at the end — the standard fix for the atomic-contention
// anti-pattern of a single shared count array. The privates are one
// flat scratch block — p rows of buckets counters — so the
// steady-state path allocates nothing.
func HistogramInto[T any](out []int, xs []T, opts Options, bucket func(T) int) {
	n := len(xs)
	buckets := len(out)
	if n == 0 || buckets == 0 {
		clear(out)
		return
	}
	p := opts.procs()
	if p > n {
		p = n
	}
	if p == 1 || n <= opts.serialCutoff() {
		clear(out)
		for _, x := range xs {
			out[bucket(x)]++
		}
		return
	}
	a := scratch.AcquireArena(opts.Scratch)
	defer a.Release()
	private := scratch.Make[int](a, p*buckets)
	ForWorkers(p, opts, func(w int) {
		lo := w * n / p
		hi := (w + 1) * n / p
		h := private[w*buckets : (w+1)*buckets]
		clear(h)
		for i := lo; i < hi; i++ {
			h[bucket(xs[i])]++
		}
	})
	// Merge bucket-parallel: each worker sums a band of buckets.
	ForRange(buckets, Options{Procs: p, Grain: 64, SerialCutoff: 64,
		Executor: opts.Executor, Scratch: opts.Scratch}, func(blo, bhi int) {
		for b := blo; b < bhi; b++ {
			s := 0
			for w := 0; w < p; w++ {
				s += private[w*buckets+b]
			}
			out[b] = s
		}
	})
}
