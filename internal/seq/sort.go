package seq

import "math/bits"

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

// The digit plan's constants, read off leaf timings on the shapes of
// BenchmarkSortClasses' rows (internal/kernel), 16 fresh inputs each:
// uniform-64 and uniform-32 at 64 Ki and 256 Ki keys for
// prefixNeighbours (2 and 4 read slower at 64 Ki, 8 at 256 Ki), and
// equal-top-64 at 1 Ki to 8 Ki, whose finish runs past its budget,
// for finishBudget and runInsertionMax (BENCHMARKS.md, "Top-digit radix
// leaf"). wideKeys was read off the leaf with 8- and 11-bit digits on
// uniform 64- and 32-bit keys at 8 Ki to 1 Mi (BENCHMARKS.md, "Wide
// digits").
const (
	// prefixNeighbours: the plan stops at the first prefix that leaves
	// fewer expected equal-prefix neighbours per key than this.
	prefixNeighbours = 1.0
	// finishBudget is the insertion finish's move budget per key. Once
	// the plan has stopped, a key expects fewer than prefixNeighbours
	// equal-prefix neighbours and moves past only the larger ones placed
	// before it. Budgets of 1 and 2 read within noise of each other on
	// equal-top-64, and 1 gives up sooner there.
	finishBudget = 1
	// runInsertionMax: past the budget, an equal-prefix run of at most
	// this many keys is insertion sorted, a longer one sorted on its
	// next digit.
	runInsertionMax = 16
	// wideKeys: from this many keys up the digits are 11 bits wide. Two
	// 8-bit digits leave n/65 536 expected equal-prefix neighbours, but
	// that is the expectation: the realized n·Σ(c_b/n)² of uniform keys
	// scatters around it, and from about 60 Ki keys it crosses
	// prefixNeighbours on some inputs and on nearly every input at
	// 64 Ki - 1, where the 8-bit plan then pays a third scatter and a
	// copy back. Two 11-bit digits leave n/4 Mi. On fewer keys the
	// 2 048 buckets cost about what the digit saves or more, to clear,
	// sum and keep in cache: on uniform 64-bit keys 11-bit digits read
	// 1.43x the 8-bit plan at 8 Ki, 1.08x at 32 Ki and 0.97x at 48 Ki,
	// so the edge sits at 48 Ki. The 11-bit plan has the same edge near
	// 4 Mi keys, where its two digits reach one expected neighbour; no
	// workload sorts that many.
	wideKeys = 48 << 10
	// warmKeys: from this many keys up, radixSort reads a caller's
	// buffer once, a word per cache line, before its first scatter
	// writes into it (touch). Read off BenchmarkRadixLeaf's cold arm:
	// 1.02x the unwarmed leaf at 1 Ki, 0.88x at 2 Ki, 0.75x at 4 Ki
	// (BENCHMARKS.md, "Warm scatter buffer").
	warmKeys = 2 << 10
)

// digitCounts is one digit's histogram: 256 buckets for 8-bit digits,
// 2 048 for 11-bit ones. The plan walker is generic over it, so each
// width compiles to its own loops with a constant digit mask.
type digitCounts interface {
	[1 << 8]int | [1 << 11]int
}

// RadixSort sorts xs with a range-relative prefix radix sort; it is the
// serial radix leaf and the baseline for the parallel radix sort. It
// scatters through buf (contents unspecified before and after), so a
// caller with a scratch arena sorts without allocating; a buf shorter
// than xs — nil for direct callers — is replaced by a fresh allocation.
// From warmKeys (2 Ki) keys up, a caller's buf is read once, one word
// per cache line, before the first scatter writes into it: a pooled
// buffer is cold by the time the next long sort takes it, and the
// scatter's random stores would each wait out a miss, where the
// in-order reads stream the lines in (BENCHMARKS.md, "Warm scatter
// buffer"). A buffer RadixSort allocates itself is not read first.
// Digits are 8 bits wide below wideKeys (48 Ki) keys and 11 bits wide
// from there up; one plan walker, radixSort, serves both widths.
//
// Keys are sorted as u = v - base, which orders them as v does. One
// pass finds lo, hi and the bits that vary; base is lo, or the sign bit
// when the varying bits need fewer digits than max - min (a constant
// run of middle bits is skipped), so a narrow signed input pays no
// digit for its sign. Digits sit over the varying bits from the top
// down (the bottom one may overlap the one above it). A second pass
// histograms the top two, and the plan walks its digits from the top,
// multiplying Σ(c_b/n)²: the first prefix where n·Π < prefixNeighbours
// leaves under one expected equal-prefix neighbour per key if digits
// are independent. Two digits cover 16 bits below 48 Ki keys and 22
// bits above, so spread-out keys stop there up to 4 Mi keys: the sort
// is the two passes, one scatter into buf and the last one back into
// xs. LSD scatters sort the keys on the plan's prefix, and the last
// one, on the top digit, insertion sorts each key into its bucket as
// it places it, which finishes the small equal-prefix groups without a
// pass of its own (McIlroy, Bostic and McIlroy, "Engineering Radix
// Sort", 1993). A plan that needs every digit is an exact LSD sort with
// no finish; digits it needs past the first pass are histogrammed in
// one more. After an odd number of scatters the keys are copied back
// into xs.
//
// Worst case: the finish gives up once its moves exceed finishBudget
// per key plus n/8, so it makes O(n) moves, and the equal-prefix runs
// are then sorted one at a time: by insertion up to runInsertionMax
// keys, and above it by a scatter on the run's next varying bits (at
// most 8 of them, whatever the plan's width) and the same bounded
// finish. Each level fixes at least five more bits of the key, so
// there are at most thirteen, each O(n).
func RadixSort(xs, buf []int64) {
	if len(xs) < wideKeys {
		radixSort[[1 << 8]int](xs, buf)
	} else {
		radixSort[[1 << 11]int](xs, buf)
	}
}

// radixSort is RadixSort's plan walker for the digit width whose
// histogram is C.
func radixSort[C digitCounts](xs, buf []int64) {
	n := len(xs)
	if n < 2 {
		return
	}
	lo, hi, diff := Bounds(xs)
	if lo == hi {
		return
	}
	// count holds a histogram per digit: 8 of them at 8 bits, 6 at 11.
	var count [8]C
	w := bits.Len(uint(len(count[0]) - 1))
	base := uint64(lo)
	var shifts, varying [8]uint8
	d := placeDigits(&shifts, ^uint64(0)>>bits.LeadingZeros64(uint64(hi)-base), w)
	if dv := placeDigits(&varying, diff, w); dv < d {
		base, shifts, d = 1<<63, varying, dv
	}
	// Only a caller's buffer is warmed: a fresh one's pages are not yet
	// mapped, and reading them would map the zero page, so that the
	// scatter's first write to each faults a second time.
	warm := len(buf) >= n && n >= warmKeys
	if len(buf) < n {
		buf = make([]int64, n)
	}
	buf = buf[:n]

	// The first pass counts two digits: the width is picked so that two
	// leave spread-out keys under prefixNeighbours. A plan that needs a
	// third digit counts all the rest in one more pass.
	h := min(d, 2)
	histogram(xs, base, count[:h], shifts[:h])
	// p is the number of digits the scatters sort on.
	p, est := d, float64(n)
	for i := 0; i < min(d, 3); i++ {
		if i == h {
			histogram(xs, base, count[h:d], shifts[h:d])
		}
		if est *= collisions(&count[i], n); est < prefixNeighbours {
			p = i + 1
			break
		}
	}
	if warm {
		touch(buf)
	}
	src, dst := xs, buf
	for i := p - 1; i > 0; i-- {
		if scatter(dst, src, &count[i], base, shifts[i]) {
			src, dst = dst, src
		}
	}
	// The top digit holds the top varying bit, so its scatter always
	// moves the keys into dst.
	sorted := true
	if p < d {
		sorted = scatterFinish(dst, src, &count[0], base, shifts[0])
	} else {
		scatter(dst, src, &count[0], base, shifts[0])
	}
	if &dst[0] != &xs[0] {
		copy(xs, dst)
	}
	if !sorted {
		sortRuns(xs, buf, 0, base, shifts[p-1])
	}
}

// Bounds returns the least and the greatest key of xs, which must not
// be empty, and the bits in which some key differs from xs[0]. Its loop
// has no branch, so mixed keys cost what sorted ones do. It stays out of
// line: inlined into RadixSort, its loop spilled a register to the stack
// and branched on max, and the leaf read up to 1.2× slower on narrow
// keys (BENCHMARKS.md, "Top-digit radix leaf").
//
//go:noinline
func Bounds(xs []int64) (lo, hi int64, diff uint64) {
	x0 := xs[0]
	lo, hi = x0, x0
	for _, v := range xs[1:] {
		lo, hi = min(lo, v), max(hi, v)
		diff |= uint64(v ^ x0)
	}
	return lo, hi, diff
}

// touch reads one word per 64-byte line of buf and returns their sum.
// It is radixSort's warm pass: the reads stream in order, so the
// hardware prefetcher brings a cold buffer's lines in at memory
// bandwidth, where the first scatter's random writes would each wait
// out a miss. It stays out of line, so the compiler keeps the loads
// although nothing reads the sum, and no shared sink is written.
//
//go:noinline
func touch(buf []int64) (sum int64) {
	for i := 0; i < len(buf); i += 8 {
		sum += buf[i]
	}
	return sum
}

// digit is the digit of u = v - base at shift s, in c's buckets. Shifts
// are below 64, and s & 63 tells the compiler so: without it every digit
// costs one more AND, with a mask that zeroes shifts of 64 and up, and
// every loop one more register (the leaf read about 10 % slower on
// uniform keys at 1 Ki to 8 Ki; BENCHMARKS.md, "Wide digits").
func digit[C digitCounts](c *C, v int64, base uint64, s uint8) uint64 {
	return (uint64(v) - base) >> (s & 63) & uint64(len(*c)-1)
}

// scatterFinish is a prefix plan's last scatter, on the top digit at
// shift s, whose histogram c holds (c becomes offsets). It insertion
// sorts each key into the keys of its bucket so far, which hold an
// equal or smaller prefix, so the keys end sorted. Once the moves
// outrun finishBudget per key by more than n/8, it scatters the rest
// plainly and returns false, leaving dst in prefix order only.
func scatterFinish[C digitCounts](dst, src []int64, c *C, base uint64, s uint8) bool {
	var start C
	sum := 0
	for b := range len(*c) {
		start[b], (*c)[b], sum = sum, sum, sum+(*c)[b]
	}
	debt, slack := 0, len(src)/8
	for i, v := range src {
		b := digit(c, v, base, s)
		k := (*c)[b]
		(*c)[b]++
		j := k
		for ; j > start[b] && dst[j-1] > v; j-- {
			dst[j] = dst[j-1]
		}
		dst[j] = v
		if debt += k - j - finishBudget; debt > slack {
			for _, v := range src[i+1:] {
				b := digit(c, v, base, s)
				dst[(*c)[b]] = v
				(*c)[b]++
			}
			return false
		}
	}
	return true
}

// placeDigits places w-bit digits over mask's set bits from the top bit
// down, skipping runs of clear bits between them, and stores their
// shifts in shifts, most significant first; the bottom digit may
// overlap the one above it. It returns how many there are.
func placeDigits(shifts *[8]uint8, mask uint64, w int) int {
	d := 0
	for ; mask != 0; d++ {
		s := max(bits.Len64(mask)-w, 0)
		shifts[d] = uint8(s)
		mask &= 1<<s - 1
	}
	return d
}

// collisions is Σ(c_b/n)²: the chance that two keys share the digit.
// The sum of squares stays exact in a uint64 up to n = 2^32 keys.
func collisions[C digitCounts](c *C, n int) float64 {
	var sum uint64
	for b := range len(*c) {
		sum += uint64((*c)[b]) * uint64((*c)[b])
	}
	return float64(sum) / (float64(n) * float64(n))
}

// scatter moves src into dst in stable order of the digit at shift s
// of u = v - base, whose histogram c holds (c becomes offsets). When
// every key has the same digit it moves nothing and returns false.
func scatter[C digitCounts](dst, src []int64, c *C, base uint64, s uint8) bool {
	if (*c)[digit(c, src[0], base, s)] == len(src) {
		return false
	}
	sum := 0
	for b := range len(*c) {
		(*c)[b], sum = sum, sum+(*c)[b]
	}
	for _, v := range src {
		b := digit(c, v, base, s)
		dst[(*c)[b]] = v
		(*c)[b]++
	}
	return true
}

// histogram counts each key's digit at every shift into count, in one
// pass. One to three digits, the counts the plan asks for, have loops of
// their own: against the generic loop they read faster in alternated
// leaf timings (two and three digits on uniform-64, one on gap-middle;
// BENCHMARKS.md, "Top-digit radix leaf").
func histogram[C digitCounts](xs []int64, base uint64, count []C, shifts []uint8) {
	switch len(shifts) {
	case 1:
		c0, s0 := &count[0], shifts[0]
		for _, v := range xs {
			(*c0)[digit(c0, v, base, s0)]++
		}
	case 2:
		c0, c1, s0, s1 := &count[0], &count[1], shifts[0], shifts[1]
		for _, v := range xs {
			(*c0)[digit(c0, v, base, s0)]++
			(*c1)[digit(c1, v, base, s1)]++
		}
	case 3:
		c0, c1, c2, s0, s1, s2 := &count[0], &count[1], &count[2], shifts[0], shifts[1], shifts[2]
		for _, v := range xs {
			(*c0)[digit(c0, v, base, s0)]++
			(*c1)[digit(c1, v, base, s1)]++
			(*c2)[digit(c2, v, base, s2)]++
		}
	default:
		for _, v := range xs {
			for i, s := range shifts {
				count[i][digit(&count[i], v, base, s)]++
			}
		}
	}
}

// sortRuns sorts the equal-prefix runs of xs from the one holding
// xs[from] on: xs is in order of the prefix (v - base) >> s, and
// xs[:from] is sorted.
func sortRuns(xs, buf []int64, from int, base uint64, s uint8) {
	prefix := func(v int64) uint64 { return (uint64(v) - base) >> s }
	a := from
	for p := prefix(xs[a]); a > 0 && prefix(xs[a-1]) == p; a-- {
	}
	for a < len(xs) {
		b, p := a+1, prefix(xs[a])
		for b < len(xs) && prefix(xs[b]) == p {
			b++
		}
		if b-a <= runInsertionMax {
			InsertionSort(xs[a:b])
		} else {
			sortRun(xs[a:b], buf[a:b], base)
		}
		a = b
	}
}

// sortRun sorts keys that share a prefix of u = v - base on their next
// digit, the w bits below the top bit where their u differ, with
// 2^w > len(xs) buckets up to 256: a counting scatter into buf, then
// the insertion finish back into xs.
func sortRun(xs, buf []int64, base uint64) {
	u0, diff, sorted := uint64(xs[0])-base, uint64(0), true
	for i, v := range xs[1:] {
		diff |= (uint64(v) - base) ^ u0
		sorted = sorted && xs[i] <= v
	}
	if sorted {
		return
	}
	w := min(bits.Len(uint(len(xs))), 8)
	s, mask := uint8(max(bits.Len64(diff)-w, 0)), uint64(1)<<w-1
	var c [256]int
	for _, v := range xs {
		c[uint8((uint64(v)-base)>>s&mask)]++
	}
	sum := 0
	for b := range c[:mask+1] {
		c[b], sum = sum, sum+c[b]
	}
	for _, v := range xs {
		b := uint8((uint64(v) - base) >> s & mask)
		buf[c[b]] = v
		c[b]++
	}
	finish(xs, buf, s, base)
}

// finish insertion sorts buf, whose keys are in order of the prefix
// (v - base) >> s, into xs: keys only move inside their equal-prefix
// group. Past the budget scatterFinish also keeps, it hands the rest to
// sortRuns. It is scatterFinish's insertion as a pass of its own
// because that is cheaper on short runs: sortRun through scatterFinish
// and a copy back read 1.34× and 1.47× the parent's leaf on
// equal-top-64 at 4 Ki and 8 Ki, this way 1.14× and 0.88×.
func finish(xs, buf []int64, s uint8, base uint64) {
	debt, slack := 0, len(xs)/8
	for i, v := range buf[:len(xs)] {
		j := i
		for ; j > 0 && xs[j-1] > v; j-- {
			xs[j] = xs[j-1]
		}
		xs[j] = v
		if debt += i - j - finishBudget; debt > slack && i+1 < len(xs) {
			copy(xs[i+1:], buf[i+1:])
			sortRuns(xs, buf, i+1, base, s)
			return
		}
	}
}
