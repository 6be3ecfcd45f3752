package kernel

import (
	"fmt"

	"repro/internal/gen"
	"repro/internal/par"
	"repro/internal/psel"
	"repro/internal/seq"
)

// top-k — the K smallest elements of Xs, ascending, into Dst[:K] (Xs
// unmodified). It exists for the standing-query path: the kept set is
// a mergeable summary, so appended chunks fold in via topkDelta for
// O(K + delta) instead of a rescan, and the full result is small
// enough to result-cache whole. One registration file, per the GUPS
// model: serve, difftest, metatest, E25 and parbench pick it up from
// the descriptor.

// runTopK selects the rank-(K-1) threshold, gathers the strictly
// smaller elements (at most K-1 of them) and pads with the threshold
// value up to K — exactly the multiset of the K smallest. Gather and
// pad stay within Dst's capacity, so a serve batch slot runs it at
// 0 allocs/op.
func runTopK(a *Args, o par.Options) {
	k := a.K
	if k == 0 {
		a.Dst = a.Dst[:0]
		return
	}
	t := psel.Select(a.Xs, k-1, o)
	out := a.Dst[:0]
	for _, v := range a.Xs {
		if v < t {
			out = append(out, v)
		}
	}
	for len(out) < k {
		out = append(out, t)
	}
	seq.Quicksort(out)
	a.Dst = out
}

// serialTopK is the independent oracle: full copy, full sort, take K.
func serialTopK(a *Args) {
	tmp := make([]int64, len(a.Xs))
	copy(tmp, a.Xs)
	seq.Quicksort(tmp)
	a.Dst = append(a.Dst[:0], tmp[:a.K]...)
}

func init() {
	Register(Kernel{
		Name:  "topk",
		Title: "K smallest of Xs ascending into Dst[:K] (Xs unmodified)",
		Variants: []Variant{
			{Name: "select+gather", Run: runTopK},
		},
		Serial: serialTopK,
		Validate: func(a *Args) error {
			if a.K < 0 || a.K > len(a.Xs) {
				return fmt.Errorf("kernel: topk count %d out of range [0,%d]", a.K, len(a.Xs))
			}
			if cap(a.Dst) < a.K {
				return fmt.Errorf("kernel: topk dst capacity %d < K=%d", cap(a.Dst), a.K)
			}
			return nil
		},
		Gen: func(n int, seed uint64) *Args {
			k := 16 + int(seed)%17
			if k > n {
				k = n
			}
			return &Args{
				Xs:  gen.Ints(n, gen.Uniform, seed),
				Dst: make([]int64, k),
				K:   k,
			}
		},
		Check: func(got, want *Args) error {
			if len(got.Dst) != len(want.Dst) {
				return fmt.Errorf("Dst length %d != %d", len(got.Dst), len(want.Dst))
			}
			for i := range got.Dst {
				if got.Dst[i] != want.Dst[i] {
					return fmt.Errorf("Dst[%d] = %d, want %d", i, got.Dst[i], want.Dst[i])
				}
			}
			return nil
		},
		Delta: topkDelta,
		Out:   OutDst,
		Cache: true,
		Meta: []MetaRelation{
			{
				// The K smallest are a property of the multiset, not the
				// order.
				Name:   "permutation",
				Mutate: shuffleXs,
				Relate: func(base, mut *Args) error {
					for i := range base.Dst {
						if base.Dst[i] != mut.Dst[i] {
							return fmt.Errorf("Dst[%d] = %d after permutation, want %d", i, mut.Dst[i], base.Dst[i])
						}
					}
					return nil
				},
			},
		},
	})
}
