package psel

import (
	"math"
	"math/bits"
	"runtime"
	"slices"

	"repro/internal/par"
	"repro/internal/rng"
	"repro/internal/scratch"
	"repro/internal/seq"
)

// Select returns the k-th smallest element of xs (k is 0-based). It does
// not modify xs. It panics if k is out of range.
//
// With one worker (Options.Procs 1, or unset on a one-processor
// machine), or at most 4 096 elements, Select is the serial leaf,
// allocation-free at steady state. That is every Select and TopK
// request a serve batch slot runs. From 512 elements up the leaf is
// Floyd and Rivest's sampled selection: two order statistics of a
// stride sample bracket rank k, one branch-free pass keeps the keys
// between them, and a branch-free quickselect finishes on that band.
// Below 512 elements, or when the bracket misses k, it is one
// scratch-arena copy of xs and the same quickselect. With more workers
// and more than 4 096 elements, each partitioning round makes two
// parallel count passes and packs the surviving side into one of two
// scratch-pooled ping-pong buffers (par.PackInto), so the buffers are
// reused across rounds and calls; the round loop's closures and pivot
// rng still allocate a few times per call. Once at most 4 096 elements
// survive, the loop ends in the serial leaf.
func Select(xs []int64, k int, opts par.Options) int64 {
	if k < 0 || k >= len(xs) {
		panic("psel: k out of range")
	}
	a := scratch.AcquireArena(opts.ScratchPool())
	defer a.Release()
	if serialLeaf(len(xs), opts) {
		// The serial leaf returns before the partition loop's closures
		// exist: they capture cur by reference, which moves it to the
		// heap at its declaration.
		return selectLeaf(xs, scratch.Make[int64](a, len(xs)), k, a)
	}
	// cur aliases xs until the first pack; after that it lives in one of
	// the ping-pong buffers, and the other is the leaf's working copy.
	cur := xs
	var ping, pong []int64
	r := rng.New(uint64(len(xs))*0x9E3779B9 + uint64(k) + 1)
	pack := func(pred func(int64) bool) {
		if ping == nil {
			ping = scratch.Make[int64](a, len(xs))
			pong = scratch.Make[int64](a, len(xs))
		}
		n := par.PackInto(ping, cur, opts, pred)
		cur = ping[:n]
		ping, pong = pong, ping
	}
	for {
		n := len(cur)
		if n <= 4096 {
			// The first round ran on more than 4 096 elements, so cur has
			// been packed and ping is free.
			return selectLeaf(cur, ping, k, a)
		}
		pivot := medianOfRandom(cur, r)
		less := par.Count(n, opts, func(i int) bool { return cur[i] < pivot })
		equal := par.Count(n, opts, func(i int) bool { return cur[i] == pivot })
		switch {
		case k < less:
			pack(func(v int64) bool { return v < pivot })
		case k < less+equal:
			return pivot
		default:
			pack(func(v int64) bool { return v > pivot })
			k -= less + equal
		}
	}
}

// medianOfRandom picks the median of 9 random elements — cheap insurance
// against adversarial pivots without a full median-of-medians pass.
func medianOfRandom(xs []int64, r *rng.Rand) int64 {
	var s [9]int64
	for i := range s {
		s[i] = xs[r.Intn(len(xs))]
	}
	// Insertion sort of 9 elements.
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
	return s[4]
}

// Smallest writes the k smallest elements of xs, ascending, to dst[:k]
// and returns dst[:k]; it appends to dst[:0], so a dst with capacity k
// is not reallocated. It does not modify xs. It panics if k is out of
// range.
//
// Where Select runs its serial leaf, Smallest runs the same sampled
// leaf at rank k-1 with the bracket's lower end open: the band is every
// key no greater than the sample's upper order statistic w, so when it
// holds at least k keys the k smallest of xs are the k smallest of the
// band. Quickselect on the band at rank k-1 and a sort of the k keys
// below it finish, with no second pass over xs. A band of fewer than k
// keys (a bracket miss), or an input below sampledMin, is one copy of
// xs and the same finish. That leaf is allocation-free at steady state.
// On the parallel path Smallest selects the rank-(k-1) threshold t with
// Select, gathers the keys below t, pads with t up to k and sorts them.
func Smallest(dst, xs []int64, k int, opts par.Options) []int64 {
	if k < 0 || k > len(xs) {
		panic("psel: k out of range")
	}
	dst = dst[:0]
	if k == 0 {
		return dst
	}
	if !serialLeaf(len(xs), opts) {
		t := Select(xs, k-1, opts)
		for _, v := range xs {
			if v < t {
				dst = append(dst, v)
			}
		}
		for len(dst) < k {
			dst = append(dst, t)
		}
		slices.Sort(dst)
		return dst
	}
	a := scratch.AcquireArena(opts.ScratchPool())
	defer a.Release()
	band := smallestBand(xs, scratch.Make[int64](a, len(xs)), k, a)
	quickselect(band, k-1, roundBudget(len(band)))
	slices.Sort(band[:k-1])
	return append(dst, band[:k]...)
}

// serialLeaf reports whether Select and Smallest run their serial leaf
// on n keys: with one worker, or at most 4 096 keys.
func serialLeaf(n int, opts par.Options) bool {
	p := opts.Procs
	if p <= 0 {
		p = runtime.GOMAXPROCS(0)
	}
	return p == 1 || n <= 4096
}

// sampledMin is the smallest input the serial leaf samples. At 256 keys
// the sample, its two selections and the filter pass cost about what
// they save (BenchmarkSelectRanks).
const sampledMin = 512

// selectLeaf returns the k-th smallest element of xs without modifying
// it; buf is a working copy of at least len(xs) elements that must not
// overlap xs, and a supplies the sample. From sampledMin keys up,
// selectLeaf brackets rank k between two sample order statistics
// u ≤ w and keeps only the keys in [u, w], at most about 3·n^(2/3) of
// them, so quickselect partitions that band instead of all n keys. A
// bracket that misses k costs one extra linear pass before the plain
// copy and quickselect, so the roundBudget bound still holds.
func selectLeaf(xs, buf []int64, k int, a *scratch.Arena) int64 {
	n := len(xs)
	if n >= sampledMin {
		s := sampleSize(n)
		lo, hi := bracketRanks(n, s, k)
		u, w := bracket(xs, scratch.Make[int64](a, s), lo, hi)
		below, m := filter(xs, buf, u, w)
		if below <= k && k < below+m {
			if u == w {
				return u
			}
			return quickselect(buf[:m], k-below, roundBudget(m))
		}
	}
	buf = buf[:n]
	copy(buf, xs)
	return quickselect(buf, k, roundBudget(n))
}

// smallestBand returns a slice of buf holding at least k keys of xs
// that include its k smallest, for Smallest's finish. From sampledMin
// keys up it is the band of keys no greater than the sample's order
// statistic above rank k-1; below that, or when the band holds fewer
// than k keys, it is a copy of all of xs.
func smallestBand(xs, buf []int64, k int, a *scratch.Arena) []int64 {
	n := len(xs)
	if n >= sampledMin {
		s := sampleSize(n)
		_, hi := bracketRanks(n, s, k-1)
		_, w := bracket(xs, scratch.Make[int64](a, s), -1, hi)
		if _, m := filter(xs, buf, math.MinInt64, w); m >= k {
			return buf[:m]
		}
	}
	buf = buf[:n]
	copy(buf, xs)
	return buf
}

// sampleSize is the leaf's sample size for n keys, about n^(2/3): it
// balances the sample's selection cost, linear in the sample, against
// the band's, which shrinks as its square root grows.
func sampleSize(n int) int {
	c := math.Cbrt(float64(n))
	return int(c * c)
}

// bracketRanks returns the sample ranks lo = k·s/n − d and
// hi = k·s/n + d that bracket rank k of n keys in a stride sample of s
// of them, with d three standard deviations of the sample rank of the
// k-th key plus 2, so that the sample's keys at lo and hi enclose it
// almost always on inputs without a period that aligns with the
// stride.
func bracketRanks(n, s, k int) (lo, hi int) {
	q := float64(k) / float64(n)
	center := int(q * float64(s))
	d := int(3*math.Sqrt(float64(s)*q*(1-q))) + 2
	return center - d, center + d
}

// bracket fills sample with a stride sample of xs and returns its order
// statistics u ≤ w at ranks lo ≤ hi. A rank off either end of the
// sample stands for the end of int64's range.
func bracket(xs, sample []int64, lo, hi int) (u, w int64) {
	n, s := len(xs), len(sample)
	stride := n / s
	for j := range sample {
		sample[j] = xs[j*stride]
	}
	u, w = math.MinInt64, math.MaxInt64
	if lo >= 0 {
		// quickselect leaves sample[lo+1:] holding the keys ranked above
		// u, so w is found among them.
		u = quickselect(sample, lo, roundBudget(s))
		sample = sample[lo+1:]
		hi -= lo + 1
	}
	if hi < len(sample) {
		w = quickselect(sample, hi, roundBudget(len(sample)))
	}
	return u, w
}

// filter writes every key of xs to band in one branch-free pass,
// advancing past it only when u ≤ v ≤ w, so band[:m] ends up holding
// xs's keys in [u, w]; below counts the keys less than u. band needs at
// least len(xs) elements and may not overlap xs.
func filter(xs, band []int64, u, w int64) (below, m int) {
	band = band[:len(xs)]
	// With u ≤ w and wrapping subtraction, uint64(v-u) ≤ uint64(w-u)
	// exactly when u ≤ v ≤ w: one compare instead of two.
	span := uint64(w - u)
	for _, v := range xs {
		band[m] = v
		m += b2i(uint64(v-u) <= span)
		below += b2i(v < u)
	}
	return below, m
}

// b2i compiles to a SETcc, not a branch.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// roundBudget is quickselect's partition-round budget for n elements:
// twice the rounds a median pivot would need, so random-pivot inputs
// almost never reach it.
func roundBudget(n int) int { return 2 * bits.Len(uint(n)) }

// insertionMax: quickselect finishes a range of at most this many keys
// by insertion sort.
const insertionMax = 16

// quickselect returns the k-th smallest element of xs and leaves xs
// partitioned around it: no key of xs[:k] is greater, and none of
// xs[k+1:] smaller. Each round partitions the range holding k around
// the median p of three random keys in one branch-free pass, the
// compare's result advancing the boundary as filter's does, so its
// cost does not depend on how predictable the compares are (Edelkamp
// and Weiß, "BlockQuicksort", ESA 2016). A round that finds no key
// below p (p is the range's minimum) returns p if every key equals it,
// and otherwise makes a second pass that splits off the keys equal to
// p, so equal keys leave the range in one round instead of one per
// round. A range of at most insertionMax keys is insertion sorted.
// Pivots come from an inline LCG rather than an rng.Rand so it
// allocates nothing. The LCG is deterministic, so a crafted input could
// make every pivot bad; after rounds partition rounds it sorts what is
// left of the range instead (slices.Sort is pdqsort: in place,
// O(n log n) worst case).
func quickselect(xs []int64, k, rounds int) int64 {
	state := uint64(len(xs)) + 7
	lo, hi := 0, len(xs)
	for ; hi-lo > insertionMax; rounds-- {
		if rounds == 0 {
			slices.Sort(xs[lo:hi])
			return xs[k]
		}
		r := uint64(hi - lo)
		a, b, c := xs[lo+lcg(&state, r)], xs[lo+lcg(&state, r)], xs[lo+lcg(&state, r)]
		p := max(min(a, b), min(max(a, b), c))
		below, equal := partition(xs[lo:hi], p)
		m := lo + below
		if below == 0 {
			if equal == hi-lo {
				return p
			}
			// A key above p exists, so p+1 does not overflow, and the
			// keys below it are the ones equal to p.
			below, _ = partition(xs[lo:hi], p+1)
			if m += below; k < m {
				return p
			}
		}
		if k < m {
			hi = m
		} else {
			lo = m
		}
	}
	seq.InsertionSort(xs[lo:hi])
	return xs[k]
}

// lcg advances quickselect's pivot generator and returns a position in
// [0, r).
func lcg(state *uint64, r uint64) int {
	*state = *state*6364136223846793005 + 1442695040888963407
	return int((*state >> 33) % r)
}

// partition moves the keys of xs less than p to its front in one
// branch-free pass and returns how many there are and how many keys
// equal p. Every key is swapped with the first one not yet known to be
// below p, and the boundary advances by the compare's result.
func partition(xs []int64, p int64) (below, equal int) {
	for j, v := range xs {
		xs[j] = xs[below]
		xs[below] = v
		below += b2i(v < p)
		equal += b2i(v == p)
	}
	return below, equal
}
