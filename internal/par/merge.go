package par

import "sort"

// Merge merges two sorted slices into dst (len(dst) == len(a)+len(b))
// using the parallel merge-path technique: the output is cut into P equal
// ranges, the corresponding split points in a and b are located by binary
// search (the "co-rank" computation), and each range is merged
// independently. The merge is stable: on ties, elements of a precede
// elements of b. Total work is O(n + P log n) and depth O(n/P + log n).
func Merge[T any](dst, a, b []T, opts Options, less func(x, y T) bool) {
	n := len(a) + len(b)
	if len(dst) != n {
		panic("par: Merge destination length mismatch")
	}
	if n == 0 {
		return
	}
	p := opts.procs()
	if p > n {
		p = n
	}
	if p == 1 || n <= opts.serialCutoff() {
		mergeSeq(dst, a, b, less)
		return
	}
	ForWorkers(p, opts, func(w int) {
		kLo := w * n / p
		kHi := (w + 1) * n / p
		iLo, jLo := coRank(kLo, a, b, less)
		iHi, jHi := coRank(kHi, a, b, less)
		mergeSeq(dst[kLo:kHi], a[iLo:iHi], b[jLo:jHi], less)
	})
}

// coRank returns (i, j) with i+j == k such that the stable merge of a and
// b places exactly a[:i] and b[:j] in the first k output positions.
//
// Feasibility of a split (i, j) requires the cross conditions
//
//	b[j-1] <  a[i]   (strict: a wins ties, so an a-element equal to
//	                  b[j-1] must not be pushed after it), and
//	a[i-1] <= b[j].
//
// The first condition is monotone in i, so binary search over it finds
// the unique feasible split; the failure of the condition at i-1 is
// exactly the second condition at i.
func coRank[T any](k int, a, b []T, less func(x, y T) bool) (int, int) {
	lo := k - len(b)
	if lo < 0 {
		lo = 0
	}
	hi := k
	if hi > len(a) {
		hi = len(a)
	}
	i := lo + sort.Search(hi-lo, func(d int) bool {
		i := lo + d
		j := k - i
		if j == 0 {
			return true
		}
		// i < hi <= len(a) here, and j >= 1.
		return less(b[j-1], a[i])
	})
	return i, k - i
}

func mergeSeq[T any](dst, a, b []T, less func(x, y T) bool) {
	i, j, k := 0, 0, 0
	for i < len(a) && j < len(b) {
		if less(b[j], a[i]) {
			dst[k] = b[j]
			j++
		} else {
			dst[k] = a[i]
			i++
		}
		k++
	}
	for i < len(a) {
		dst[k] = a[i]
		i++
		k++
	}
	for j < len(b) {
		dst[k] = b[j]
		j++
		k++
	}
}
