package psel

import (
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
// machine), or at most 4 096 elements, Select is the serial leaf: one
// scratch-arena copy of xs and an in-place quickselect, allocation-free
// at steady state. That is every Select and TopK request a serve batch
// slot runs. Otherwise each partitioning round makes two parallel count
// passes and packs the surviving side into one of two scratch-pooled
// ping-pong buffers (par.PackInto), so the buffers are reused across
// rounds and calls; the round loop's closures and pivot rng still
// allocate a few times per call.
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
		buf := scratch.Make[int64](a, len(xs))
		copy(buf, xs)
		return quickselect(buf, k, roundBudget(len(buf)))
	}
	// cur aliases xs until the first pack; after that it lives in the
	// ping-pong buffers, which double as the mutable quickselect copy.
	cur := xs
	var ping, pong []int64
	owned := false
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
		owned = true
	}
	for {
		n := len(cur)
		if n <= 4096 {
			buf := cur
			if !owned {
				buf = scratch.Make[int64](a, n)
				copy(buf, cur)
			}
			return quickselect(buf, k, roundBudget(n))
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

// Median returns the lower median of xs.
func Median(xs []int64, opts par.Options) int64 {
	return Select(xs, (len(xs)-1)/2, opts)
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
