package bsp

import "repro/internal/exec"

// MatmulSUMMAOn multiplies dense n×n matrices on a q×q grid of virtual
// processors (P = q²) with the SUMMA algorithm (van de Geijn & Watts
// 1995): in step k the owners of A's block-column k broadcast their
// panels along processor rows, the owners of B's block-row k broadcast
// along processor columns, and every processor accumulates into its own
// C block.
//
// This is the 2D answer to the 1D row-block kernel's weak-scaling
// collapse (experiment E15): per step each owner ships (q−1) copies of
// an (n/q)² block, so total traffic is Θ(n²·q) versus the row-block
// algorithm's Θ(n²·P) — a factor √P less communication at equal
// processor count, which is the entire point of 2D decompositions.
// e is the executor (nil = default); see RunOn.
func MatmulSUMMAOn(e *exec.Executor, a, b []float64, n, q int) ([]float64, *Stats) {
	if q < 1 {
		q = 1
	}
	p := q * q
	cOut := make([]float64, n*n)
	block := func(i int) (int, int) { return i * n / q, (i + 1) * n / q }
	stats := RunOn(e, p, func(c *Proc[panel]) {
		row := c.ID() / q
		col := c.ID() % q
		r0, r1 := block(row)
		c0, c1 := block(col)
		for k := 0; k < q; k++ {
			k0, k1 := block(k)
			// Broadcast A block (row, k) along processor row `row`.
			if col == k {
				words := (r1 - r0) * (k1 - k0)
				for to := 0; to < q; to++ {
					if to == col {
						continue
					}
					c.SendWords(row*q+to, panel{isA: true, rows: extract(a, n, r0, r1, k0, k1)}, words)
				}
			}
			// Broadcast B block (k, col) along processor column `col`.
			if row == k {
				words := (k1 - k0) * (c1 - c0)
				for to := 0; to < q; to++ {
					if to == row {
						continue
					}
					c.SendWords(to*q+col, panel{isA: false, rows: extract(b, n, k0, k1, c0, c1)}, words)
				}
			}
			inbox := c.Sync()
			var ap, bp []float64
			if col == k {
				ap = extract(a, n, r0, r1, k0, k1)
			}
			if row == k {
				bp = extract(b, n, k0, k1, c0, c1)
			}
			for _, m := range inbox {
				if m.isA {
					ap = m.rows
				} else {
					bp = m.rows
				}
			}
			// C(r0:r1, c0:c1) += ap (r×k) × bp (k×c).
			kw := k1 - k0
			cw := c1 - c0
			ops := 0
			for i := 0; i < r1-r0; i++ {
				crow := cOut[(r0+i)*n+c0 : (r0+i)*n+c1]
				arow := ap[i*kw : (i+1)*kw]
				for kk := 0; kk < kw; kk++ {
					aik := arow[kk]
					brow := bp[kk*cw : (kk+1)*cw]
					for j := 0; j < cw; j++ {
						crow[j] += aik * brow[j]
					}
				}
				ops += kw * cw
			}
			c.Charge(ops)
		}
		// Final barrier commits the last step's compute charge.
		c.Sync()
	})
	return cOut, stats
}

// panel carries one matrix block, flagged by operand.
type panel struct {
	isA  bool
	rows []float64
}

// extract copies the (r0:r1, c0:c1) block of an n-column row-major
// matrix into a dense (r1-r0)×(c1-c0) buffer.
func extract(m []float64, n, r0, r1, c0, c1 int) []float64 {
	w := c1 - c0
	out := make([]float64, (r1-r0)*w)
	for i := r0; i < r1; i++ {
		copy(out[(i-r0)*w:(i-r0+1)*w], m[i*n+c0:i*n+c1])
	}
	return out
}
