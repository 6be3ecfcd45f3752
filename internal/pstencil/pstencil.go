package pstencil

import (
	"math"

	"repro/internal/gen"
	"repro/internal/par"
)

// Jacobi runs iters synchronous sweeps of the 5-point stencil over g's
// interior, with row bands distributed across workers, and returns the
// final grid. Double buffering makes each sweep a deterministic,
// race-free PRAM step; boundaries are Dirichlet.
func Jacobi(g *gen.Grid, iters int, opts par.Options) *gen.Grid {
	cur := g.Clone()
	next := g.Clone()
	n := g.N
	for it := 0; it < iters; it++ {
		sweep(cur, next, n, opts)
		cur, next = next, cur
	}
	return cur
}

func sweep(cur, next *gen.Grid, n int, opts par.Options) {
	par.ForRange(n-2, opts, func(lo, hi int) {
		for r := lo; r < hi; r++ {
			i := r + 1 // interior rows are 1..n-2
			up := cur.Data[(i-1)*n:]
			mid := cur.Data[i*n:]
			down := cur.Data[(i+1)*n:]
			out := next.Data[i*n:]
			for j := 1; j < n-1; j++ {
				out[j] = 0.25 * (up[j] + down[j] + mid[j-1] + mid[j+1])
			}
		}
	})
}

// JacobiToConvergence iterates until the maximum cell change in a sweep
// falls below tol or maxIters is reached; it returns the grid and the
// number of sweeps executed. The residual is computed with a parallel
// max-reduction, demonstrating primitive composition.
func JacobiToConvergence(g *gen.Grid, tol float64, maxIters int, opts par.Options) (*gen.Grid, int) {
	cur := g.Clone()
	next := g.Clone()
	n := g.N
	for it := 1; it <= maxIters; it++ {
		sweep(cur, next, n, opts)
		resid := par.Reduce(n-2, opts, 0.0, math.Max, func(r int) float64 {
			i := r + 1
			m := 0.0
			for j := 1; j < n-1; j++ {
				d := math.Abs(next.Data[i*n+j] - cur.Data[i*n+j])
				if d > m {
					m = d
				}
			}
			return m
		})
		cur, next = next, cur
		if resid < tol {
			return cur, it
		}
	}
	return cur, maxIters
}
