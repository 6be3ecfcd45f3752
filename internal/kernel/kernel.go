package kernel

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/par"
	"repro/internal/rng"
)

// Variant is one algorithm implementing a kernel. Variant 0 is the
// kernel's general-purpose algorithm: what Run executes unless the
// kernel declares a Default, which picks a variant per input feature
// class instead.
type Variant struct {
	// Name labels the variant in stats, benchmarks and demos.
	Name string
	// Run executes the algorithm on a. It may parallelize under opts
	// and must leave its results in a's output fields.
	Run func(a *Args, opts par.Options)
}

// MetaRelation is one metamorphic property of a kernel: Mutate
// transforms an input record, and Relate checks the required
// relationship between the outputs of the original and mutated runs.
type MetaRelation struct {
	Name string
	// Mutate rewrites a (generated by Gen) into the related input.
	Mutate func(a *Args, r *rng.Rand)
	// Relate inspects the two output records after both ran and
	// returns a descriptive error when the relation is violated.
	Relate func(base, mut *Args) error
}

// OutField names the Args field a kernel's result lives in: the
// section a wire reply carries, and what a result cache copies out on
// insert and restores on hit.
type OutField int

const (
	// OutXs: the result is the primary slice, rewritten in place (sort,
	// gups). The zero value.
	OutXs OutField = iota
	// OutDst: the result is the Dst slice (scan, topk).
	OutDst
	// OutHist: the result is the Hist slice (histogram).
	OutHist
	// OutDist: the result is the Dist slice (bfs, cc).
	OutDist
	// OutScalar: the result is the Out scalar only (sum, select).
	OutScalar
)

// Kernel is one registered kernel descriptor. Register validates the
// required fields; see the package comment for what each layer
// derives from it.
type Kernel struct {
	// Name is the registry key ("sort", "gups", ...).
	Name string
	// Title is the one-line description listings show.
	Title string
	// Variants are the algorithms implementing the kernel; at least
	// one. Run dispatches among them through Default.
	Variants []Variant
	// Serial is the sequential oracle differential tests (and the
	// serve batch slot's reference semantics) compare against.
	Serial func(a *Args)
	// Validate rejects malformed argument records at the front door
	// (rank out of range, missing bucket function). Optional.
	Validate func(a *Args) error
	// Gen builds a valid, deterministic argument record for a problem
	// of roughly n elements (degenerate n may be bumped to the
	// kernel's minimum). Distinct seeds vary distribution, key width
	// and other input shapes, so harnesses sweep seeds for coverage.
	Gen func(n int, seed uint64) *Args
	// Check compares the output fields of two records that ran the
	// same input and returns a descriptive error on mismatch.
	Check func(got, want *Args) error
	// Feature maps an input to its variant-dispatch class in [0, 63]
	// (key-width × size × sortedness for sorts). Consulted only with
	// Default; Register requires it there.
	Feature func(a *Args) int
	// Default names the variant Run executes for a Feature class. It
	// is the kernel's measured answer to "which algorithm for this
	// input" — sort's is a table read off BenchmarkSortClasses.
	// Optional; variant 0 when nil. Register requires Feature and more
	// than one variant with it, and an index into Variants for every
	// class.
	Default func(class int) int
	// Stream is the kernel's long-route adapter: serve runs it on the
	// caller's goroutine, outside the queues, for inputs at or above
	// Config.PipelineCutoff, under options spanning the server
	// executor's whole width. Both adapters that exist make one call of
	// the kernel under those options: chunking the input through a
	// pipeline lost to the one-shot call for sort and for scan alike
	// (BENCHMARKS.md, "The long route"). The name is kept for bench/,
	// which wraps the field. Optional — kernels without one always
	// batch.
	Stream func(a *Args, opts par.Options) error
	// Meta are the kernel's metamorphic relations.
	Meta []MetaRelation
	// Delta, when non-nil, is the kernel's incremental adapter: it
	// applies a Delta to a record whose outputs are current, leaving
	// the record as if Run had executed on the updated input. Invoked
	// through RunDelta; serves the standing-query path (CallDeltaBudget).
	Delta func(a *Args, d *Delta, opts par.Options) error
	// Out names the field the kernel's result lives in.
	Out OutField
	// Cache declares the kernel's output (Out: Xs, Dst or Scalar) a
	// pure function of its fingerprintable inputs (Xs, K, Seed),
	// cacheable by a generation-stamped result cache
	// (internal/rescache). False for kernels whose inputs include a
	// function or graph.
	Cache bool
	// Allocates marks kernels whose Run inherently allocates per call
	// (BFS returns a fresh distance slice); the conformance test
	// exempts them from the 0 allocs/op serve-path check.
	Allocates bool
}

// featureClasses bounds Feature's range: classes are [0, 63], the
// range Register checks Default over.
const featureClasses = 64

var (
	regMu sync.RWMutex
	reg   = map[string]*Kernel{}
	order []*Kernel
)

// Register validates and installs a kernel descriptor and returns the
// installed kernel. It panics on incomplete descriptors and duplicate
// names — registration is init-time wiring, not a runtime input.
func Register(k Kernel) *Kernel {
	if k.Name == "" || len(k.Variants) == 0 || k.Serial == nil || k.Gen == nil || k.Check == nil {
		panic(fmt.Sprintf("kernel: Register(%q): Name, Variants, Serial, Gen and Check are required", k.Name))
	}
	for i, v := range k.Variants {
		if v.Name == "" || v.Run == nil {
			panic(fmt.Sprintf("kernel: Register(%q): variant %d incomplete", k.Name, i))
		}
	}
	if k.Default != nil {
		if k.Feature == nil || len(k.Variants) < 2 {
			panic(fmt.Sprintf("kernel: Register(%q): Default needs Feature and more than one variant", k.Name))
		}
		for c := 0; c < featureClasses; c++ {
			if v := k.Default(c); v < 0 || v >= len(k.Variants) {
				panic(fmt.Sprintf("kernel: Register(%q): Default(%d) = %d, not a variant index", k.Name, c, v))
			}
		}
	}
	if k.Cache && k.Out != OutXs && k.Out != OutDst && k.Out != OutScalar {
		panic(fmt.Sprintf("kernel: Register(%q): Cache needs an Xs, Dst or Scalar output", k.Name))
	}
	kp := &k
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := reg[k.Name]; dup {
		panic("kernel: duplicate registration: " + k.Name)
	}
	reg[k.Name] = kp
	order = append(order, kp)
	return kp
}

// Lookup returns the kernel registered under name, or nil.
func Lookup(name string) *Kernel {
	regMu.RLock()
	defer regMu.RUnlock()
	return reg[name]
}

// LookupBytes is Lookup for a name still in a decode buffer: indexing
// the registry map with a converted []byte key does not allocate, so a
// wire decoder resolves kernels per frame without a name index of its
// own, and a kernel registered while connections are live resolves on
// the next frame.
func LookupBytes(name []byte) *Kernel {
	regMu.RLock()
	defer regMu.RUnlock()
	return reg[string(name)]
}

// MustLookup is Lookup that panics when the kernel is missing; for
// wiring layers that require a built-in.
func MustLookup(name string) *Kernel {
	k := Lookup(name)
	if k == nil {
		panic("kernel: not registered: " + name)
	}
	return k
}

// All returns the registered kernels in registration order.
func All() []*Kernel {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]*Kernel, len(order))
	copy(out, order)
	return out
}

// Names returns the registered kernel names, sorted.
func Names() []string {
	regMu.RLock()
	out := make([]string, 0, len(order))
	for _, k := range order {
		out = append(out, k.Name)
	}
	regMu.RUnlock()
	sort.Strings(out)
	return out
}

// Run executes the kernel on a under the caller's options. A kernel
// with a Default picks its algorithm per input: Feature gives the
// input's class (key width, size, sortedness — orthogonal to
// parallelism, so the choice applies even at Procs 1) and
// Default(class) names the variant. A kernel with no Default runs
// variant 0.
func (k *Kernel) Run(a *Args, opts par.Options) {
	if k.Default == nil {
		k.Variants[0].Run(a, opts)
		return
	}
	k.Variants[k.Default(k.Feature(a))].Run(a, opts)
}

// RunVariant executes one specific variant by index, bypassing
// dispatch — the hook differential tests use to oracle-check every
// algorithm, not just the dispatched one.
func (k *Kernel) RunVariant(i int, a *Args, opts par.Options) {
	k.Variants[i].Run(a, opts)
}
