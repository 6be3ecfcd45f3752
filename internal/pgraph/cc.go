package pgraph

import (
	"sync/atomic"

	"repro/internal/graph"
	"repro/internal/par"
)

// CCLabelProp computes connected components by synchronous label
// propagation: every node repeatedly adopts the minimum label in its
// closed neighborhood until a fixpoint. Rounds are Jacobi-style (read
// previous labels, write next labels), so the result is deterministic
// and race-free; the price is Θ(diameter) rounds.
// Returned labels are component-minimum node ids.
func CCLabelProp(g *graph.Graph, opts par.Options) []int32 {
	n := g.N()
	cur := make([]int32, n)
	next := make([]int32, n)
	par.For(n, opts, func(v int) { cur[v] = int32(v) })
	for {
		changed := par.Count(n, opts, func(v int) bool {
			m := cur[v]
			for _, w := range g.Neighbors(v) {
				if cur[w] < m {
					m = cur[w]
				}
			}
			next[v] = m
			return m != cur[v]
		})
		cur, next = next, cur
		if changed == 0 {
			break
		}
	}
	return cur
}

// CCHook computes connected components with the hook-and-shortcut scheme
// (a practical Shiloach–Vishkin variant, cf. FastSV): each round hooks
// every edge's larger root under the smaller via atomic min-CAS, then
// shortcuts parent chains by pointer jumping. Rounds are O(log n)
// regardless of diameter — the asymptotic advantage over label
// propagation that experiment E5 measures on meshes.
// Returned labels are the component roots' node ids.
func CCHook(g *graph.Graph, opts par.Options) []int32 {
	n := g.N()
	parent := make([]atomic.Int32, n)
	par.For(n, opts, func(v int) { parent[v].Store(int32(v)) })

	root := func(v int32) int32 {
		for {
			p := parent[v].Load()
			if p == v {
				return v
			}
			v = p
		}
	}

	for {
		// Hook phase: for every edge, attach the larger root beneath the
		// smaller. CAS-min keeps the parent forest consistent under
		// concurrent hooks.
		hooked := int64(0)
		var hookedAtomic atomic.Int64
		par.For(n, opts, func(u int) {
			local := int64(0)
			ru := root(int32(u))
			for _, w := range g.Neighbors(u) {
				rw := root(w)
				hi, lo := ru, rw
				if hi == lo {
					continue
				}
				if hi < lo {
					hi, lo = lo, hi
				}
				// Attach hi under lo if that improves hi's parent.
				for {
					cur := parent[hi].Load()
					if cur <= lo {
						break
					}
					if parent[hi].CompareAndSwap(cur, lo) {
						local++
						break
					}
				}
				ru = root(int32(u))
			}
			if local > 0 {
				hookedAtomic.Add(local)
			}
		})
		hooked = hookedAtomic.Load()

		// Shortcut phase: full pointer jumping until the forest is
		// flat (every node points at its root).
		for {
			jumped := par.Count(n, opts, func(v int) bool {
				p := parent[v].Load()
				gp := parent[p].Load()
				if p != gp {
					parent[v].Store(gp)
					return true
				}
				return false
			})
			if jumped == 0 {
				break
			}
		}
		if hooked == 0 {
			break
		}
	}
	out := make([]int32, n)
	par.For(n, opts, func(v int) { out[v] = parent[v].Load() })
	return out
}

// CountComponents returns the number of distinct labels.
func CountComponents(labels []int32) int {
	seen := make(map[int32]struct{})
	for _, l := range labels {
		seen[l] = struct{}{}
	}
	return len(seen)
}

// SamePartition reports whether two labelings induce identical partitions
// (used by tests and the harness to cross-validate CC algorithms).
func SamePartition(a []int32, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	fwd := map[int32]int{}
	rev := map[int]int32{}
	for i := range a {
		if v, ok := fwd[a[i]]; ok && v != b[i] {
			return false
		}
		if v, ok := rev[b[i]]; ok && v != a[i] {
			return false
		}
		fwd[a[i]] = b[i]
		rev[b[i]] = a[i]
	}
	return true
}
