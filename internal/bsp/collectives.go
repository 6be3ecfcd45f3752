package bsp

import "repro/internal/exec"

// Bulk-message kernels: the row-block matmul ships whole matrix panels
// per message, so its h-relation is charged by word volume (SendWords),
// not message count — the aggregation effect experiment E18 measures.

// MatmulRowBlockOn multiplies dense n×n matrices with a row-block
// distribution: each processor owns n/P rows of A and C and receives all
// of B column-panels via an all-to-all-style broadcast from the owner of
// each panel — modeling B as block-distributed too. Supersteps: P (one
// per panel round-robin broadcast), h = n·n/P words per superstep. The
// compute/communication ratio n/P per word is the textbook BSP matmul
// analysis. e is the executor (nil = default); see RunOn.
func MatmulRowBlockOn(e *exec.Executor, a, b []float64, n, p int) ([]float64, *Stats) {
	cOut := make([]float64, n*n)
	stats := RunOn(e, p, func(c *Proc[panelMsg]) {
		id, np := c.ID(), c.NProcs()
		rLo := id * n / np
		rHi := (id + 1) * n / np
		for round := 0; round < np; round++ {
			// Panel owner broadcasts its row-panel of B.
			pLo := round * n / np
			pHi := (round + 1) * n / np
			if id == round {
				words := (pHi - pLo) * n
				for to := 0; to < np; to++ {
					if to == id {
						continue
					}
					c.SendWords(to, panelMsg{lo: pLo, rows: b[pLo*n : pHi*n]}, words)
				}
			}
			inbox := c.Sync()
			panel := b[pLo*n : pHi*n]
			if id != round {
				if len(inbox) != 1 {
					panic("bsp: matmul panel missing")
				}
				panel = inbox[0].rows
			}
			// Multiply-accumulate with the received panel.
			ops := 0
			for i := rLo; i < rHi; i++ {
				for k := pLo; k < pHi; k++ {
					aik := a[i*n+k]
					prow := panel[(k-pLo)*n:]
					crow := cOut[i*n:]
					for j := 0; j < n; j++ {
						crow[j] += aik * prow[j]
					}
				}
				ops += (pHi - pLo) * n
			}
			c.Charge(ops)
		}
		// Final barrier so the last round's compute charge is recorded
		// (charges are committed at Sync).
		c.Sync()
	})
	return cOut, stats
}

// panelMsg carries a B row-panel; SendWords charges its full word
// volume to the h-relation.
type panelMsg struct {
	lo   int
	rows []float64
}
