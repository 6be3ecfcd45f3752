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
// allocation. All eight digit histograms are built in one read pass:
// a scatter only permutes the keys, so each digit's counts are the same
// before every pass.
func RadixSort(xs, buf []int64) {
	n := len(xs)
	if n < 2 {
		return
	}
	if len(buf) < n {
		buf = make([]int64, n)
	}
	const bits = 8
	var count [64 / bits][1 << bits]int
	for _, v := range xs {
		u := flip(v)
		count[0][uint8(u)]++
		count[1][uint8(u>>8)]++
		count[2][uint8(u>>16)]++
		count[3][uint8(u>>24)]++
		count[4][uint8(u>>32)]++
		count[5][uint8(u>>40)]++
		count[6][uint8(u>>48)]++
		count[7][uint8(u>>56)]++
	}
	first := flip(xs[0])
	src, dst := xs, buf[:n]
	for d := range count {
		shift := uint(d * bits)
		c := &count[d]
		// Skip passes where all keys share one digit.
		if c[uint8(first>>shift)] == n {
			continue
		}
		sum := 0
		for b := range c {
			c[b], sum = sum, sum+c[b]
		}
		for _, v := range src {
			b := uint8(flip(v) >> shift)
			dst[c[b]] = v
			c[b]++
		}
		src, dst = dst, src
	}
	if &src[0] != &xs[0] {
		copy(xs, src)
	}
}

// flip maps int64 ordering onto uint64 ordering.
func flip(v int64) uint64 { return uint64(v) ^ (1 << 63) }
