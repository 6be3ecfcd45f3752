package kernel

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/par"
	"repro/internal/pgraph"
	"repro/internal/rng"
	"repro/internal/seq"
)

// cc — connected-component labels of G into Dist, canonicalized to
// component-minimum node ids. Both pgraph algorithms produce that
// canonical form directly (hook attaches larger roots under smaller;
// label propagation adopts neighborhood minima), so the registry gets
// a genuine two-variant lattice and the oracle check is exact label
// equality, not just partition equivalence. Registered for the
// standing-query path: ccDelta maintains the labels under edge
// insertions without recomputing from scratch.

// serialCC is the union-find oracle (independent of both parallel
// algorithms), relabeled to component minima.
func serialCC(a *Args) {
	g := a.G
	n := g.N()
	u := seq.NewUnionFind(n)
	for _, e := range g.Edges() {
		u.Union(e.U, e.V)
	}
	minOf := make([]int32, n)
	for i := range minOf {
		minOf[i] = -1
	}
	for v := 0; v < n; v++ {
		if r := u.Find(v); minOf[r] < 0 {
			minOf[r] = int32(v) // v ascending: first hit is the minimum
		}
	}
	dist := make([]int32, n)
	for v := 0; v < n; v++ {
		dist[v] = minOf[u.Find(v)]
	}
	a.Dist = dist
}

// genCC builds a sparse random graph — below-percolation edge density
// plus isolated tails, so components of many sizes (including
// singletons) coexist.
func genCC(n int, seed uint64) *Args {
	if n < 1 {
		n = 1
	}
	r := rng.New(seed*0x9E3779B9 + 7)
	m := n + n/2
	edges := make([]graph.Edge, 0, m)
	for i := 0; i < m; i++ {
		edges = append(edges, graph.Edge{U: r.Intn(n), V: r.Intn(n)})
	}
	return &Args{G: graph.MustBuild(n, edges, false)}
}

func init() {
	Register(Kernel{
		Name:  "cc",
		Title: "connected-component labels of G into Dist (component-minimum ids)",
		Variants: []Variant{
			{Name: "hook", Run: func(a *Args, o par.Options) { a.Dist = pgraph.CCHook(a.G, o) }},
			{Name: "labelprop", Run: func(a *Args, o par.Options) { a.Dist = pgraph.CCLabelProp(a.G, o) }},
		},
		Serial: serialCC,
		Validate: func(a *Args) error {
			if a.G == nil {
				return fmt.Errorf("kernel: cc with nil graph")
			}
			return nil
		},
		Gen:   genCC,
		Check: checkDist,
		Delta: ccDelta,
		Meta: []MetaRelation{
			{
				// Duplicating an existing edge (or adding a self-loop on an
				// empty edge set) cannot change any component.
				Name:   "duplicate-edge",
				Mutate: duplicateEdge,
				Relate: checkDist,
			},
		},
		Out:       OutDist,
		Allocates: true, // both variants return freshly allocated label slices
	})
}
