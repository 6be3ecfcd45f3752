package psort

import (
	"repro/internal/par"
	"repro/internal/scratch"
	"repro/internal/seq"
)

// CountingMaxRange is the key spread (max-min) at or above which
// CountingSort falls back to RadixSort: past it the counting array
// dwarfs the input and the O(n + range) bound stops being a win.
const CountingMaxRange = 1 << 20

// CountingSort sorts xs in place by key counting: one pass to count
// occurrences of each value in [min, max], one pass over the counts to
// regenerate xs in order. O(n + range) with no comparisons — the
// narrow-key specialist of the sorter roster. Keys spreading wider
// than CountingMaxRange fall back to RadixSort, so it is safe to call
// on any input.
func CountingSort(xs []int64, opts par.Options) {
	n := len(xs)
	if n < 2 {
		return
	}
	min, max, _ := seq.Bounds(xs)
	// Two's-complement subtraction is exact for any int64 pair: the
	// true spread always fits in uint64.
	spread := uint64(max) - uint64(min)
	if spread >= CountingMaxRange {
		RadixSort(xs, opts)
		return
	}
	k := int(spread) + 1
	a := scratch.AcquireArena(opts.ScratchPool())
	defer a.Release()
	counts := scratch.MakeZeroed[int](a, k)
	for _, v := range xs {
		counts[uint64(v)-uint64(min)]++
	}
	// Regenerate: keys are the values, so the sorted output is implied
	// by the counts alone.
	i := 0
	for v, c := range counts {
		key := min + int64(v)
		for ; c > 0; c-- {
			xs[i] = key
			i++
		}
	}
}
