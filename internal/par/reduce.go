package par

import "repro/internal/scratch"

// Reduce combines body(i) for all i in [0, n) with an associative operator
// combine, starting from identity. Each worker reduces a contiguous block
// locally and the per-worker partials are combined sequentially at the
// end, so combine is called O(n/P + P) times and no atomics are needed on
// the hot path.
//
// combine must be associative; if it is not commutative the result is
// still well-defined because blocks are combined in index order.
func Reduce[T any](n int, opts Options, identity T, combine func(T, T) T, body func(i int) T) T {
	if n <= 0 {
		return identity
	}
	opts, m := BeginAdaptive(siteReduce, n, opts)
	defer m.Done()
	p := opts.procs()
	if p > n {
		p = n
	}
	if p == 1 || n <= opts.serialCutoff() {
		acc := identity
		for i := 0; i < n; i++ {
			acc = combine(acc, body(i))
		}
		return acc
	}
	partial, ph := scratch.Get[T](opts.Scratch, p)
	defer scratch.Put(ph)
	ForWorkers(p, opts, func(w int) {
		lo := w * n / p
		hi := (w + 1) * n / p
		acc := identity
		for i := lo; i < hi; i++ {
			acc = combine(acc, body(i))
		}
		partial[w] = acc
	})
	acc := identity
	for _, v := range partial {
		acc = combine(acc, v)
	}
	return acc
}

// Sum returns the sum of xs using a parallel tree of contiguous blocks.
func Sum[T int | int32 | int64 | uint64 | float64](xs []T, opts Options) T {
	return Reduce(len(xs), opts, T(0), func(a, b T) T { return a + b }, func(i int) T { return xs[i] })
}

// Count returns the number of indices i in [0, n) for which pred(i) holds.
func Count(n int, opts Options, pred func(i int) bool) int {
	return Reduce(n, opts, 0, func(a, b int) int { return a + b }, func(i int) int {
		if pred(i) {
			return 1
		}
		return 0
	})
}
