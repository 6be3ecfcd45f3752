package kernel

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/par"
	"repro/internal/psel"
	"repro/internal/scratch"
	"repro/internal/seq"
)

// Delta is one incremental update to a previously computed argument
// record — the standing-query input shape: a tenant holds a record
// whose outputs are current, new data arrives, and the kernel's delta
// adapter folds it in for the cost of the delta instead of a full
// recompute. Which fields apply depends on the kernel: Append feeds
// the slice kernels (sort, sum, scan, histogram, topk), Edges feeds
// dynamic connectivity (cc).
type Delta struct {
	// Append are values appended to the input stream.
	Append []int64
	// Edges are edges inserted into the graph.
	Edges []graph.Edge
}

// RunDelta applies one incremental update to a record whose outputs
// are current: afterwards the record is exactly as if Run had executed
// on the updated input (for cc, on G plus every edge inserted so far —
// G itself is immutable and is not rebuilt). It runs the kernel's
// delta adapter; kernels without one return an error. Unlike Run, the
// delta path may allocate (records grow).
func (k *Kernel) RunDelta(a *Args, d *Delta, opts par.Options) error {
	if k.Delta == nil {
		return fmt.Errorf("kernel: %s has no delta adapter", k.Name)
	}
	return k.Delta(a, d, opts)
}

// sortDelta maintains sorted order under appends: sort the appended
// tail, then one backward in-place merge — O(n + k) instead of a full
// re-sort.
func sortDelta(a *Args, d *Delta, _ par.Options) error {
	k := len(d.Append)
	if k == 0 {
		return nil
	}
	n := len(a.Xs)
	a.Xs = append(a.Xs, d.Append...)
	tmp := make([]int64, k)
	copy(tmp, a.Xs[n:])
	seq.Quicksort(tmp)
	// Merge backward, head run in place and the sorted tail in tmp:
	// the write position w = i+j+1 always sits above the head run's
	// unread prefix [0..i], so nothing unconsumed is ever overwritten
	// (merging both runs in place would clobber the tail).
	i, j := n-1, k-1
	for w := n + k - 1; j >= 0; w-- {
		if i >= 0 && a.Xs[i] > tmp[j] {
			a.Xs[w] = a.Xs[i]
			i--
		} else {
			a.Xs[w] = tmp[j]
			j--
		}
	}
	return nil
}

// sumDelta absorbs appended values in O(len(delta)).
func sumDelta(a *Args, d *Delta, _ par.Options) error {
	for _, v := range d.Append {
		a.Out += v
	}
	a.Xs = append(a.Xs, d.Append...)
	return nil
}

// scanDelta extends the prefix sums, continuing the carry from the
// last computed position.
func scanDelta(a *Args, d *Delta, _ par.Options) error {
	if len(a.Dst) != len(a.Xs) {
		return fmt.Errorf("kernel: scan delta on record with dst length %d != input length %d", len(a.Dst), len(a.Xs))
	}
	var carry int64
	if n := len(a.Dst); n > 0 {
		carry = a.Dst[n-1]
	}
	for _, v := range d.Append {
		carry += v
		a.Xs = append(a.Xs, v)
		a.Dst = append(a.Dst, carry)
	}
	return nil
}

// histogramDelta absorbs appended values bucket by bucket — the
// mergeable-summary property of counting.
func histogramDelta(a *Args, d *Delta, _ par.Options) error {
	if a.Bucket == nil {
		return fmt.Errorf("kernel: histogram delta with nil bucket function")
	}
	for _, v := range d.Append {
		a.Hist[a.Bucket(v)]++
	}
	a.Xs = append(a.Xs, d.Append...)
	return nil
}

// topkDelta merges appended candidates into the kept set: the new K
// smallest of the grown input are a subset of the old K smallest plus
// the appended values (an element outside the old top K is dominated
// by K older elements and cannot enter). Both go into one scratch
// buffer, and psel.Smallest, the kernel's own routine, writes their K
// smallest back to Dst.
func topkDelta(a *Args, d *Delta, o par.Options) error {
	a.Xs = append(a.Xs, d.Append...)
	if a.K == 0 || len(d.Append) == 0 {
		return nil
	}
	s := scratch.AcquireArena(o.ScratchPool())
	defer s.Release()
	kept := scratch.Make[int64](s, len(a.Dst)+len(d.Append))
	copy(kept[copy(kept, a.Dst):], d.Append)
	a.Dst = psel.Smallest(a.Dst, kept, min(a.K, len(kept)), o)
	return nil
}

// ccDelta is dynamic connectivity under edge insertions: union-find
// over the current component labels (which are component-minimum node
// ids, so union-by-min preserves the canonical form), then one
// relabeling sweep — O(n + k α) instead of recomputing components
// from scratch. G is not rebuilt; Dist reflects G plus every inserted
// edge.
func ccDelta(a *Args, d *Delta, _ par.Options) error {
	if len(d.Edges) == 0 {
		return nil
	}
	if a.G == nil || len(a.Dist) != a.G.N() {
		return fmt.Errorf("kernel: cc delta on record without current labels")
	}
	parent := make(map[int32]int32, 2*len(d.Edges))
	var find func(x int32) int32
	find = func(x int32) int32 {
		p, ok := parent[x]
		if !ok || p == x {
			return x
		}
		r := find(p)
		parent[x] = r
		return r
	}
	n := len(a.Dist)
	changed := false
	for _, e := range d.Edges {
		if e.U < 0 || e.U >= n || e.V < 0 || e.V >= n {
			return fmt.Errorf("kernel: cc delta edge (%d,%d) out of range [0,%d)", e.U, e.V, n)
		}
		ru, rv := find(a.Dist[e.U]), find(a.Dist[e.V])
		if ru == rv {
			continue
		}
		if ru > rv {
			ru, rv = rv, ru
		}
		parent[rv] = ru
		changed = true
	}
	if !changed {
		return nil
	}
	for i, l := range a.Dist {
		a.Dist[i] = find(l)
	}
	return nil
}
