package psel

import (
	"math"
	"math/bits"
	"runtime"
	"slices"

	"repro/internal/adapt"
	"repro/internal/par"
	"repro/internal/rng"
	"repro/internal/scratch"
)

// Adaptive call sites. Select keeps Options.Adaptive set on its inner
// primitives rather than deciding once up front: the surviving side
// shrinks geometrically across rounds, so the count and pack passes
// each want a per-size-class answer (late rounds converge to serial
// while early rounds stay parallel). The named sites keep the two
// phases' learned state apart.
var (
	siteSelectCount = adapt.NewSite("psel.Select.count", adapt.KindWorkers)
	siteSelectPack  = adapt.NewSite("psel.Select.pack", adapt.KindWorkers)
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
// between them, and quickselect finishes on that band. Below 512
// elements, or when the bracket misses k, it is one scratch-arena copy
// of xs and an in-place quickselect. With more workers and more than
// 4 096 elements, each partitioning round makes two parallel count
// passes and packs the surviving side into one of two scratch-pooled
// ping-pong buffers (par.PackInto), so the buffers are reused across
// rounds and calls; the round loop's closures and pivot rng still
// allocate a few times per call. Once at most 4 096 elements survive,
// the loop ends in the serial leaf.
func Select(xs []int64, k int, opts par.Options) int64 {
	if k < 0 || k >= len(xs) {
		panic("psel: k out of range")
	}
	p := opts.Procs
	if p <= 0 {
		p = runtime.GOMAXPROCS(0)
	}
	a := scratch.AcquireArena(opts.ScratchPool())
	defer a.Release()
	if p == 1 || len(xs) <= 4096 {
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
	countOpts := opts
	countOpts.Site = siteSelectCount
	packOpts := opts
	packOpts.Site = siteSelectPack
	pack := func(pred func(int64) bool) {
		if ping == nil {
			ping = scratch.Make[int64](a, len(xs))
			pong = scratch.Make[int64](a, len(xs))
		}
		n := par.PackInto(ping, cur, packOpts, pred)
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
		less := par.Count(n, countOpts, func(i int) bool { return cur[i] < pivot })
		equal := par.Count(n, countOpts, func(i int) bool { return cur[i] == pivot })
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

// sampledMin is the smallest input the serial leaf samples. At 256 keys
// the sample, its two selections and the filter pass cost about what
// they save (BenchmarkSelectRanks).
const sampledMin = 512

// selectLeaf returns the k-th smallest element of xs without modifying
// it; buf is a working copy of at least len(xs) elements that must not
// overlap xs, and a supplies the sample. Quickselect on n keys makes
// about 2n to 3.4n comparisons, half of them mispredicted. From
// sampledMin keys up, selectLeaf brackets rank k between two sample
// order statistics u ≤ w and keeps only the keys in [u, w], at most
// about 3·n^(2/3) of them, so quickselect runs on that band instead. A
// bracket that misses k costs one extra linear pass before the plain
// copy and quickselect, so the roundBudget bound still holds.
func selectLeaf(xs, buf []int64, k int, a *scratch.Arena) int64 {
	n := len(xs)
	if n >= sampledMin {
		u, w := bracket(xs, scratch.Make[int64](a, sampleSize(n)), k)
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

// sampleSize is the leaf's sample size for n keys, about n^(2/3): it
// balances the sample's selection cost, linear in the sample, against
// the band's, which shrinks as its square root grows.
func sampleSize(n int) int {
	c := math.Cbrt(float64(n))
	return int(c * c)
}

// bracket fills sample with a stride sample of xs and returns its order
// statistics u ≤ w at ranks k·s/n ∓ d, with d three standard deviations
// of the sample rank of xs's k-th key plus 2, so that u ≤ x_k ≤ w almost
// always on inputs without a period that aligns with the stride. A rank
// off either end of the sample stands for the end of int64's range.
func bracket(xs, sample []int64, k int) (u, w int64) {
	n, s := len(xs), len(sample)
	stride := n / s
	for j := range sample {
		sample[j] = xs[j*stride]
	}
	q := float64(k) / float64(n)
	center := int(q * float64(s))
	d := int(3*math.Sqrt(float64(s)*q*(1-q))) + 2
	lo, hi := center-d, center+d
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

// quickselect is the sequential in-place baseline (Hoare partition with
// random pivots). It mutates xs. Pivots come from an inline LCG rather
// than an rng.Rand so it allocates nothing. The LCG is deterministic, so
// a crafted input could make every pivot bad; after rounds partition
// rounds it sorts what is left of the range instead (slices.Sort is
// pdqsort: in place, O(n log n) worst case).
func quickselect(xs []int64, k, rounds int) int64 {
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

// SelectSeq is the exported sequential baseline: k-th smallest without
// parallel primitives (copies xs, then in-place quickselect).
func SelectSeq(xs []int64, k int) int64 {
	if k < 0 || k >= len(xs) {
		panic("psel: k out of range")
	}
	buf := append([]int64(nil), xs...)
	return quickselect(buf, k, roundBudget(len(buf)))
}
