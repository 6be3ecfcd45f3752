package pgraph

import (
	"sync"
	"sync/atomic"

	"repro/internal/graph"
	"repro/internal/par"
	"repro/internal/scratch"
)

// BFS performs a level-synchronous parallel breadth-first search from
// src, returning each node's depth (-1 if unreachable). Each level
// expands the frontier in parallel; visited claims use CAS so every node
// is discovered exactly once. Depths are deterministic (level-synchronous
// BFS assigns the unique hop distance) even though the discovery order
// within a level — and hence the frontier's internal order — is not.
//
// The two frontier buffers ping-pong through a scratch arena and the
// per-worker discovery staging lives in worker-local slot arenas, so
// the per-level loop allocates nothing at steady state; only the
// returned depth array is fresh.
func BFS(g *graph.Graph, src int, opts par.Options) []int32 {
	n := g.N()
	depth := make([]int32, n)
	par.For(n, opts, func(v int) { depth[v] = -1 })
	visited := make([]atomic.Bool, n)

	a := scratch.AcquireArena(opts.ScratchPool())
	defer a.Release()
	frontier := scratch.MakeCap[int32](a, 1, n)
	next := scratch.MakeCap[int32](a, 0, n)
	frontier[0] = int32(src)
	visited[src].Store(true)
	depth[src] = 0

	for level := int32(1); len(frontier) > 0; level++ {
		frontier, next = expand(g, frontier, visited, depth, level, opts, next[:0]), frontier
	}
	return depth
}

// expand produces the next frontier from the current one into next
// (cap(next) must be at least g.N()). Work is partitioned over
// frontier vertices; each worker stages its discoveries in a buffer
// from its slot arena — sized by its block's out-degree sum, so the
// stage never grows — and flushes them to next under a mutex once per
// worker, avoiding a shared synchronized queue on the discovery path.
func expand(g *graph.Graph, frontier []int32, visited []atomic.Bool, depth []int32, level int32, opts par.Options, next []int32) []int32 {
	nf := len(frontier)
	p := opts.Procs
	if p <= 0 {
		p = 1
	}
	if p > nf {
		p = nf
	}
	var mu sync.Mutex
	par.ForWorkersArena(p, opts, func(w int, wa *scratch.Arena) {
		lo, hi := w*nf/p, (w+1)*nf/p
		bound := 0
		for i := lo; i < hi; i++ {
			bound += g.Degree(int(frontier[i]))
		}
		out := scratch.MakeCap[int32](wa, 0, bound)
		for i := lo; i < hi; i++ {
			v := frontier[i]
			for _, u := range g.Neighbors(int(v)) {
				if !visited[u].Load() && visited[u].CompareAndSwap(false, true) {
					depth[u] = level
					out = append(out, u)
				}
			}
		}
		mu.Lock()
		next = append(next, out...)
		mu.Unlock()
	})
	return next
}

// Eccentricity returns the maximum finite depth in a BFS depth array,
// i.e. the eccentricity of the source within its component.
func Eccentricity(depth []int32) int32 {
	var m int32
	for _, d := range depth {
		if d > m {
			m = d
		}
	}
	return m
}
