package machine

import "math"

// WorkDepth is the PRAM-style cost of a computation: total operation
// count (work) and critical-path length (depth/span).
type WorkDepth struct {
	Work  float64
	Depth float64
}

// Seq composes two computations sequentially: work and depth both add.
func (a WorkDepth) Seq(b WorkDepth) WorkDepth {
	return WorkDepth{Work: a.Work + b.Work, Depth: a.Depth + b.Depth}
}

// Par composes two computations in parallel: work adds, depth is the max.
func (a WorkDepth) Par(b WorkDepth) WorkDepth {
	return WorkDepth{Work: a.Work + b.Work, Depth: math.Max(a.Depth, b.Depth)}
}

// Brent returns the classic scheduling bound on execution time with p
// processors, in abstract operation units: T_p <= W/p + D.
func (a WorkDepth) Brent(p int) float64 {
	if p < 1 {
		p = 1
	}
	return a.Work/float64(p) + a.Depth
}

// Speedup returns the model speedup W / T_p (sequential work divided by
// Brent's bound).
func (a WorkDepth) Speedup(p int) float64 {
	t := a.Brent(p)
	if t == 0 {
		return 0
	}
	return a.Work / t
}

// Analytic work/depth for the suite's kernels, parameterized by input
// size. Constants are unit operations; they are calibrated to wall-clock
// via a per-kernel ns/op factor at fit time.

// ScanWD is the blocked two-sweep parallel scan: 2n work, 2n/p + p depth
// in the blocked realization; in pure PRAM terms depth is O(log n), but
// we model the implemented algorithm, not the idealized one.
func ScanWD(n int) WorkDepth {
	return WorkDepth{Work: 2 * float64(n), Depth: 2 * math.Log2(math.Max(2, float64(n)))}
}

// SortWD models comparison sample sort: n log n work, log^2 n depth.
func SortWD(n int) WorkDepth {
	lg := math.Log2(math.Max(2, float64(n)))
	return WorkDepth{Work: float64(n) * lg, Depth: lg * lg}
}

// ListRankWD models pointer jumping: n log n work (the work-inefficiency
// that experiment E4 exhibits), log n depth.
func ListRankWD(n int) WorkDepth {
	lg := math.Log2(math.Max(2, float64(n)))
	return WorkDepth{Work: float64(n) * lg, Depth: lg}
}

// MatmulWD models dense n^3 multiplication with log n reduction depth.
func MatmulWD(n int) WorkDepth {
	f := float64(n)
	return WorkDepth{Work: 2 * f * f * f, Depth: math.Log2(math.Max(2, f))}
}

// CCWD models hook-and-contract connectivity: (n+m) log n work, log^2 n
// depth.
func CCWD(n, m int) WorkDepth {
	lg := math.Log2(math.Max(2, float64(n)))
	return WorkDepth{Work: float64(n+m) * lg, Depth: lg * lg}
}

// BSPParams are the Bulk-Synchronous Parallel machine parameters.
// Costs are expressed in the same unit as w (per-operation time); g is
// the per-word communication gap and l the barrier latency, both in
// operation units.
type BSPParams struct {
	P int     // processors
	G float64 // gap: time per word of h-relation, in op units
	L float64 // barrier synchronization latency, in op units
}

// Superstep is one BSP superstep's observed cost drivers: the maximum
// local computation (operations) and the maximum h-relation (words sent
// or received by any processor).
type Superstep struct {
	W float64 // max local work (operations)
	H float64 // max words communicated by one processor
}

// Cost returns the BSP cost of one superstep: w + g·h + l.
func (p BSPParams) Cost(s Superstep) float64 { return s.W + p.G*s.H + p.L }

// TotalCost sums the cost over a superstep trace.
func (p BSPParams) TotalCost(steps []Superstep) float64 {
	t := 0.0
	for _, s := range steps {
		t += p.Cost(s)
	}
	return t
}

// LogPParams are the LogP machine parameters (all in operation units):
// L latency, O per-message overhead, G gap between messages, P procs.
type LogPParams struct {
	L float64
	O float64
	G float64
	P int
}

// Broadcast returns the cost of an optimal single-item broadcast to P-1
// receivers under LogP. We build the optimal broadcast tree greedily:
// each informed processor repeatedly sends to new processors, each send
// occupying the sender for max(o, g) and delivering after o+L+o.
func (p LogPParams) Broadcast() float64 {
	if p.P <= 1 {
		return 0
	}
	// Event-driven simulation of the greedy optimal broadcast tree.
	gap := math.Max(p.O, p.G)
	ready := []float64{0} // times at which informed procs can next send
	informed := 1
	last := 0.0
	for informed < p.P {
		// Pick the sender that can send earliest.
		best := 0
		for i, t := range ready {
			if t < ready[best] {
				best = i
			}
		}
		sendAt := ready[best]
		arrive := sendAt + p.O + p.L + p.O
		ready[best] = sendAt + gap
		ready = append(ready, arrive+math.Max(0, gap-p.O))
		informed++
		if arrive > last {
			last = arrive
		}
	}
	return last
}
