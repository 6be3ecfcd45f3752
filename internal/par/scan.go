package par

import "repro/internal/scratch"

// Scan primitives implement parallel prefix sums, the canonical PRAM
// building block (Blelloch 1990). The implementation is the practical
// two-sweep blocked algorithm rather than the O(log n)-depth tree:
//
//	sweep 1: P workers reduce their contiguous block to a partial sum;
//	         the P partials are exclusively scanned sequentially;
//	sweep 2: each worker rescans its block seeded with its offset.
//
// This performs 2n operations versus n sequentially — the factor-of-two
// work overhead every treatment of parallel scan calls out — so speedup
// is bounded by P/2 relative to the sequential sweep. Experiment E1
// measures exactly this bound.

// ScanInclusive computes dst[i] = xs[0] ⊕ ... ⊕ xs[i] with an associative
// operator. dst and xs must have equal length; dst may alias xs.
func ScanInclusive[T any](dst, xs []T, opts Options, identity T, combine func(T, T) T) {
	scan(dst, xs, opts, identity, combine, true)
}

// ScanExclusive computes dst[i] = identity ⊕ xs[0] ⊕ ... ⊕ xs[i-1].
// dst and xs must have equal length; dst may alias xs.
func ScanExclusive[T any](dst, xs []T, opts Options, identity T, combine func(T, T) T) {
	scan(dst, xs, opts, identity, combine, false)
}

func scan[T any](dst, xs []T, opts Options, identity T, combine func(T, T) T, inclusive bool) {
	n := len(xs)
	if len(dst) != n {
		panic("par: scan length mismatch")
	}
	if n == 0 {
		return
	}
	p := opts.procs()
	if p > n {
		p = n
	}
	if p == 1 || n <= opts.serialCutoff() {
		scanSeq(dst, xs, identity, combine, inclusive)
		return
	}
	// Sweep 1: per-block reductions. The partials come from the scratch
	// pool so the steady-state path allocates nothing.
	partial, ph := scratch.Get[T](opts.Scratch, p)
	defer scratch.Put(ph)
	ForWorkers(p, opts, func(w int) {
		lo := w * n / p
		hi := (w + 1) * n / p
		acc := identity
		for i := lo; i < hi; i++ {
			acc = combine(acc, xs[i])
		}
		partial[w] = acc
	})
	// Exclusive scan of the P partials (sequential; P is small).
	acc := identity
	for w := 0; w < p; w++ {
		partial[w], acc = acc, combine(acc, partial[w])
	}
	// Sweep 2: rescan each block seeded with its offset.
	ForWorkers(p, opts, func(w int) {
		lo := w * n / p
		hi := (w + 1) * n / p
		acc := partial[w]
		if inclusive {
			for i := lo; i < hi; i++ {
				acc = combine(acc, xs[i])
				dst[i] = acc
			}
		} else {
			for i := lo; i < hi; i++ {
				next := combine(acc, xs[i])
				dst[i] = acc
				acc = next
			}
		}
	})
}

func scanSeq[T any](dst, xs []T, identity T, combine func(T, T) T, inclusive bool) {
	acc := identity
	if inclusive {
		for i, x := range xs {
			acc = combine(acc, x)
			dst[i] = acc
		}
		return
	}
	for i, x := range xs {
		next := combine(acc, x)
		dst[i] = acc
		acc = next
	}
}

// PrefixSumsInto writes the exclusive prefix sums of counts into
// offsets (len(offsets) == len(counts)) and returns the grand total,
// the idiom used by every counting/packing kernel in the library
// (sample sort bucket placement, radix sort, pack, CSR construction).
func PrefixSumsInto(offsets, counts []int, opts Options) (total int) {
	ScanExclusive(offsets, counts, opts, 0, func(a, b int) int { return a + b })
	if n := len(counts); n > 0 {
		total = offsets[n-1] + counts[n-1]
	}
	return total
}
