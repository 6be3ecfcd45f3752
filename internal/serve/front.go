package serve

import (
	"time"

	"repro/internal/graph"
	"repro/internal/kernel"
)

// Front is the one request interface of the serving stack: submit a
// registered kernel's argument record (or an incremental delta against
// one) on behalf of a tenant, under a deadline budget, and wait for the
// answer in a. A zero budget inherits the serving side's Config.SLO; a
// positive one replaces it for this request. *Sharded and
// *wire.Client implement it, so the wire listener, the demos and a
// remote shard are written once against this type.
type Front interface {
	CallBudget(tenant string, k *kernel.Kernel, a *kernel.Args, budget time.Duration) error
	CallDeltaBudget(tenant string, k *kernel.Kernel, a *kernel.Args, d *kernel.Delta, budget time.Duration) error
}

var _ Front = (*Sharded)(nil)

// The kernels behind the typed helpers, resolved once at init (the
// kernel package registers its built-ins in its own init, which runs
// first because serve imports it).
var (
	kernelSort      = kernel.MustLookup("sort")
	kernelSelect    = kernel.MustLookup("select")
	kernelHistogram = kernel.MustLookup("histogram")
	kernelScan      = kernel.MustLookup("scan")
	kernelSum       = kernel.MustLookup("sum")
	kernelBFS       = kernel.MustLookup("bfs")
)

// The typed helpers below build the argument record for one built-in
// kernel and submit it through f with no budget of their own. Each is
// branch-free, and the value-returning ones name their results; that
// keeps all six under the inliner's budget (scripts/inlinecheck.sh
// gates it). Inlined into a call site that names a concrete
// *Sharded, the CallBudget call devirtualises and the record stays on
// the stack: 0 allocs/op, pinned by TestCacheHitZeroAllocs. Called
// through a Front-typed variable the record escapes (1 alloc/op), so a
// hot loop holding an interface value reuses one kernel.Args and calls
// CallBudget itself.

// Sort sorts xs in place. Small inputs batch with other requests;
// inputs of PipelineCutoff elements or more run on the caller's
// goroutine, outside the queues, so they cannot stall a batch.
func Sort(f Front, tenant string, xs []int64) error {
	a := kernel.Args{Xs: xs}
	return f.CallBudget(tenant, kernelSort, &a, 0)
}

// Select returns the k-th smallest element of xs (0-based) without
// modifying xs.
func Select(f Front, tenant string, xs []int64, k int) (out int64, err error) {
	a := kernel.Args{Xs: xs, K: k}
	err = f.CallBudget(tenant, kernelSelect, &a, 0)
	return a.Out, err
}

// Histogram counts bucket(x) occurrences over xs into hist (fully
// overwritten; len(hist) is the bucket count). bucket must return
// values in [0, len(hist)).
func Histogram(f Front, tenant string, hist []int, xs []int64, bucket func(int64) int) error {
	a := kernel.Args{Xs: xs, Hist: hist, Bucket: bucket}
	return f.CallBudget(tenant, kernelHistogram, &a, 0)
}

// Scan writes inclusive prefix sums of xs into dst (len(dst) must
// equal len(xs); dst may alias xs). A long scan (PipelineCutoff
// elements or more) is one kernel call on the caller's goroutine.
func Scan(f Front, tenant string, dst, xs []int64) error {
	a := kernel.Args{Xs: xs, Dst: dst}
	return f.CallBudget(tenant, kernelScan, &a, 0)
}

// Sum returns the sum of xs.
func Sum(f Front, tenant string, xs []int64) (sum int64, err error) {
	a := kernel.Args{Xs: xs}
	err = f.CallBudget(tenant, kernelSum, &a, 0)
	return a.Out, err
}

// BFS returns hop distances from src in g (-1 when unreachable).
func BFS(f Front, tenant string, g *graph.Graph, src int) (dist []int32, err error) {
	a := kernel.Args{G: g, Src: src}
	err = f.CallBudget(tenant, kernelBFS, &a, 0)
	return a.Dist, err
}
