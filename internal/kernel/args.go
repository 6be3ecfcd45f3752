package kernel

import "repro/internal/graph"

// Args is the one argument record every kernel entrypoint accepts: a
// flat union of the fields the registered kernels need, so requests
// can carry any kernel's arguments without interface boxing or
// per-kernel request types (which is what keeps the serve batch path
// allocation-free). A kernel reads the fields its documentation
// names and ignores the rest; results land back in the record (Xs
// sorted in place, Out, Dist, Hist, Dst).
type Args struct {
	// Xs is the primary input slice (sort/select/histogram/scan/sum
	// input; the GUPS update table). Kernels that produce slice output
	// in place write it here.
	Xs []int64
	// Dst is the output slice of transforming kernels (scan). Its
	// length must match Xs; it may alias Xs.
	Dst []int64
	// Hist is the bucket-count output of histogram kernels.
	Hist []int
	// Bucket maps a value to its bucket in [0, len(Hist)).
	Bucket func(int64) int
	// K is the rank of selection kernels and the update count of GUPS.
	K int
	// G and Src are the graph-kernel inputs.
	G   *graph.Graph
	Src int
	// Out is the scalar result (select, sum).
	Out int64
	// Dist is the slice result of graph kernels (BFS hop distances).
	Dist []int32
	// Seed parameterizes kernels with internal randomness (the GUPS
	// index stream).
	Seed uint64
}

// Len is the kernel's problem size: the node count for graph kernels,
// the primary slice length otherwise. It sizes adaptive decisions,
// long-route routing and per-element cost accounting.
func (a *Args) Len() int {
	if a.G != nil {
		return a.G.N()
	}
	return len(a.Xs)
}
