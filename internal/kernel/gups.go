package kernel

import (
	"fmt"
	"math/bits"
	"sync/atomic"

	"repro/internal/par"
	"repro/internal/rng"
)

// GUPS — giga-updates-per-second random access, after the HPCC
// RandomAccess benchmark: K pseudo-random read-modify-write updates
// scattered over a power-of-two table. It is the memory system's
// worst case (every update is a likely cache miss) and the scratch
// story's blind spot (there is nothing to reuse), which is exactly
// why the roster wants it.
//
// This file is the whole integration: one Register call threads the
// kernel through serve's request path, difftest's oracle matrix,
// metatest's relation matrix, experiment E25 and the parbench demo,
// with no edits anywhere else. Updates use commutative wrapping
// addition via atomic.AddInt64, so the parallel result is
// deterministic and equal to the serial oracle's regardless of
// interleaving.

// gupsMix is splitmix64: the i-th update's random word is a pure
// function of (Seed, i), so workers derive their updates with no
// shared stream state.
func gupsMix(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

func runGUPS(a *Args, opts par.Options) {
	if opts.Procs == 1 {
		// A serve batch slot runs serially: plain adds give the same
		// (commutative) result with no atomics and no update closure
		// escaping to the heap, keeping the batch path at 0 allocs/op.
		serialGUPS(a)
		return
	}
	mask := uint64(len(a.Xs) - 1)
	xs, seed := a.Xs, a.Seed
	par.ForRange(a.K, opts, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			r := gupsMix(seed + uint64(i))
			// r|1 keeps every delta odd, so no update is a no-op.
			atomic.AddInt64(&xs[r&mask], int64(r|1))
		}
	})
}

func serialGUPS(a *Args) {
	mask := uint64(len(a.Xs) - 1)
	for i := 0; i < a.K; i++ {
		r := gupsMix(a.Seed + uint64(i))
		a.Xs[r&mask] += int64(r | 1)
	}
}

func init() {
	Register(Kernel{
		Name:  "gups",
		Title: "K random-access updates over power-of-two table Xs",
		Variants: []Variant{
			{Name: "atomic", Run: runGUPS},
		},
		Serial: serialGUPS,
		Validate: func(a *Args) error {
			n := len(a.Xs)
			if n == 0 || n&(n-1) != 0 {
				return fmt.Errorf("kernel: gups table length %d is not a power of two", n)
			}
			if a.K < 0 {
				return fmt.Errorf("kernel: gups update count %d is negative", a.K)
			}
			return nil
		},
		Gen: func(n int, seed uint64) *Args {
			if n < 1 {
				n = 1
			}
			tn := 1 << (bits.Len(uint(n)) - 1) // largest power of two <= n
			xs := make([]int64, tn)
			for i := range xs {
				xs[i] = int64(i) * 0x9E3779B9
			}
			return &Args{Xs: xs, K: 4 * tn, Seed: seed*0x9E3779B97F4A7C15 + 1}
		},
		Check: eqXs,
		// Deterministic given (Xs, K, Seed): the update stream is a pure
		// function of (Seed, i) and wrapping adds commute.
		Out:   OutXs,
		Cache: true,
		Meta: []MetaRelation{
			{
				// The update stream depends only on (Seed, K), so shifting
				// every table cell by a constant shifts every result cell
				// by the same constant.
				Name: "table-translation",
				Mutate: func(a *Args, _ *rng.Rand) {
					for i := range a.Xs {
						a.Xs[i] += translationDelta
					}
				},
				Relate: func(base, mut *Args) error {
					for i := range base.Xs {
						if mut.Xs[i] != base.Xs[i]+translationDelta {
							return fmt.Errorf("Xs[%d] = %d, want %d", i, mut.Xs[i], base.Xs[i]+translationDelta)
						}
					}
					return nil
				},
			},
		},
	})
}
