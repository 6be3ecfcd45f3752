package psel

import "slices"

// SelectSeq is the exported sequential baseline and the select kernel's
// serial oracle: k-th smallest without parallel primitives (copies xs,
// then an in-place Hoare quickselect). It shares no partition code with
// the serial leaf it checks.
func SelectSeq(xs []int64, k int) int64 {
	if k < 0 || k >= len(xs) {
		panic("psel: k out of range")
	}
	buf := append([]int64(nil), xs...)
	return hoareSelect(buf, k, roundBudget(len(buf)))
}

// hoareSelect is quickselect with Hoare partitions around random
// pivots. It mutates xs. Its compares are branches, about half of them
// mispredicted on random keys, which is why the leaf does not use it.
// Pivots come from an inline LCG; after rounds partition rounds it
// sorts what is left of the range instead (slices.Sort is pdqsort: in
// place, O(n log n) worst case).
func hoareSelect(xs []int64, k, rounds int) int64 {
	state := uint64(len(xs)) + 7
	lo, hi := 0, len(xs)-1
	for ; lo < hi; rounds-- {
		if rounds == 0 {
			slices.Sort(xs[lo : hi+1])
			break
		}
		state = state*6364136223846793005 + 1442695040888963407
		p := xs[lo+int((state>>33)%uint64(hi-lo+1))]
		i, j := lo, hi
		for i <= j {
			for xs[i] < p {
				i++
			}
			for xs[j] > p {
				j--
			}
			if i <= j {
				xs[i], xs[j] = xs[j], xs[i]
				i++
				j--
			}
		}
		switch {
		case k <= j:
			hi = j
		case k >= i:
			lo = i
		default:
			return xs[k]
		}
	}
	return xs[k]
}
