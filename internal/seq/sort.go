package seq

// Quicksort sorts xs in place with median-of-three pivoting and an
// insertion-sort cutoff, the standard engineered sequential comparison
// sort baseline.
func Quicksort(xs []int64) {
	for len(xs) > 24 {
		p := partition(xs)
		// Recurse on the smaller side to bound stack depth at O(log n).
		if p < len(xs)-p-1 {
			Quicksort(xs[:p])
			xs = xs[p+1:]
		} else {
			Quicksort(xs[p+1:])
			xs = xs[:p]
		}
	}
	InsertionSort(xs)
}

// partition performs Hoare-style partitioning around a median-of-three
// pivot and returns the pivot's final index.
func partition(xs []int64) int {
	n := len(xs)
	mid := n / 2
	// Median-of-three: order xs[0], xs[mid], xs[n-1].
	if xs[mid] < xs[0] {
		xs[mid], xs[0] = xs[0], xs[mid]
	}
	if xs[n-1] < xs[0] {
		xs[n-1], xs[0] = xs[0], xs[n-1]
	}
	if xs[n-1] < xs[mid] {
		xs[n-1], xs[mid] = xs[mid], xs[n-1]
	}
	pivot := xs[mid]
	// Move pivot to n-2 (xs[n-1] >= pivot already).
	xs[mid], xs[n-2] = xs[n-2], xs[mid]
	i, j := 0, n-2
	for {
		for i++; xs[i] < pivot; i++ {
		}
		for j--; xs[j] > pivot; j-- {
		}
		if i >= j {
			break
		}
		xs[i], xs[j] = xs[j], xs[i]
	}
	xs[i], xs[n-2] = xs[n-2], xs[i]
	return i
}

// InsertionSort sorts small slices in place.
func InsertionSort(xs []int64) {
	for i := 1; i < len(xs); i++ {
		v := xs[i]
		j := i - 1
		for j >= 0 && xs[j] > v {
			xs[j+1] = xs[j]
			j--
		}
		xs[j+1] = v
	}
}

// Mergesort sorts xs using a bottom-up stable merge sort with a scratch
// buffer; baseline for the parallel merge sort.
func Mergesort(xs []int64) {
	n := len(xs)
	if n < 2 {
		return
	}
	buf := make([]int64, n)
	src, dst := xs, buf
	for width := 1; width < n; width *= 2 {
		for lo := 0; lo < n; lo += 2 * width {
			mid := lo + width
			hi := lo + 2*width
			if mid > n {
				mid = n
			}
			if hi > n {
				hi = n
			}
			mergeInt64(dst[lo:hi], src[lo:mid], src[mid:hi])
		}
		src, dst = dst, src
	}
	if &src[0] != &xs[0] {
		copy(xs, src)
	}
}

func mergeInt64(dst, a, b []int64) {
	i, j, k := 0, 0, 0
	for i < len(a) && j < len(b) {
		if b[j] < a[i] {
			dst[k] = b[j]
			j++
		} else {
			dst[k] = a[i]
			i++
		}
		k++
	}
	copy(dst[k:], a[i:])
	copy(dst[k+len(a)-i:], b[j:])
}

// RadixSort sorts xs (treated as unsigned by flipping the sign bit) with
// an LSD radix sort using 8-bit digits; baseline for the parallel radix
// sort. It scatters through buf (contents unspecified before and
// after), so a caller with a scratch arena sorts without allocating; a
// buf shorter than xs — nil for direct callers — is replaced by a fresh
// allocation.
func RadixSort(xs, buf []int64) {
	n := len(xs)
	if n < 2 {
		return
	}
	if len(buf) < n {
		buf = make([]int64, n)
	}
	const bits = 8
	const buckets = 1 << bits
	const mask = buckets - 1
	src, dst := xs, buf[:n]
	for shift := 0; shift < 64; shift += bits {
		var count [buckets]int
		for _, v := range src {
			count[(flip(v)>>shift)&mask]++
		}
		// Skip passes where all keys share one digit.
		if count[(flip(src[0])>>shift)&mask] == n {
			continue
		}
		sum := 0
		for b := range count {
			count[b], sum = sum, sum+count[b]
		}
		for _, v := range src {
			b := (flip(v) >> shift) & mask
			dst[count[b]] = v
			count[b]++
		}
		src, dst = dst, src
	}
	if &src[0] != &xs[0] {
		copy(xs, src)
	}
}

// flip maps int64 ordering onto uint64 ordering.
func flip(v int64) uint64 { return uint64(v) ^ (1 << 63) }
