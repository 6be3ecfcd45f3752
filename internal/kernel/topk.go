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

// runTopK is psel.Smallest. In a serve batch slot (Procs 1) that is the
// selection leaf's band of keys below a sample order statistic, cut to
// the K smallest and sorted, with no second pass over Xs. It writes
// within Dst's capacity, so the slot runs it at 0 allocs/op.
func runTopK(a *Args, o par.Options) { a.Dst = psel.Smallest(a.Dst, a.Xs, a.K, o) }

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
			{Name: "smallest", Run: runTopK},
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
