package kernel

import (
	"fmt"
	"math/bits"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/par"
	"repro/internal/pgraph"
	"repro/internal/psel"
	"repro/internal/psort"
	"repro/internal/rng"
	"repro/internal/seq"
)

// The built-in kernel roster: the six request types the serving
// runtime has offered since PR 5, re-declared as registrations. The
// sort kernel is the multi-variant showcase — sample sort (the
// comparison-sort incumbent), radix sort (splitter buckets, each
// sorted by the serial radix leaf) and counting sort enter the variant
// lattice and the adaptive runtime picks per feature class. GUPS lives
// in its own file (gups.go) as the one-registration proof.

// eqXs compares the primary slices elementwise.
func eqXs(got, want *Args) error {
	if len(got.Xs) != len(want.Xs) {
		return fmt.Errorf("Xs length %d != %d", len(got.Xs), len(want.Xs))
	}
	for i := range got.Xs {
		if got.Xs[i] != want.Xs[i] {
			return fmt.Errorf("Xs[%d] = %d, want %d", i, got.Xs[i], want.Xs[i])
		}
	}
	return nil
}

// shuffleXs is the shared permutation mutation.
func shuffleXs(a *Args, r *rng.Rand) {
	r.Shuffle(len(a.Xs), func(i, j int) { a.Xs[i], a.Xs[j] = a.Xs[j], a.Xs[i] })
}

// translationDelta is the constant the translation relations add.
const translationDelta = 7

// sortFeature packs the sort kernel's dispatch class,
// (width bucket*4 + size bucket)*2 + sorted bit, which indexes
// sortDefaultTable. Width bucket 0 is dense keys: a spread max - min
// below max(256, n), i.e. keys of at most 8 bits or a key range with
// fewer slots than elements. There the count array is no larger than
// the input, so counting sort is O(n) whatever the order. The edge is
// n, not a key width: at 8 Ki elements a nearly sorted 16-bit spread
// (8n) costs counting sort 172–204 µs against quicksort's 82–170 µs,
// while on the ramp 0..n-1 rotated by n/3 counting sort takes a fifth
// of quicksort's time. Buckets 1–3 are the remaining keys of 9–16,
// 17–32 and more bits. Size separates cache regimes; the sortedness bit
// separates inputs where a comparison sort's branch predictability
// beats radix's fixed passes.
func sortFeature(a *Args) int {
	xs := a.Xs
	n := len(xs)
	if n == 0 {
		return 0
	}
	lo, hi, _ := seq.Bounds(xs)
	spread := uint64(hi) - uint64(lo)
	width := bits.Len64(spread)
	wb := 3
	switch {
	case spread < max(256, uint64(n)):
		wb = 0
	case width <= 16:
		wb = 1
	case width <= 32:
		wb = 2
	}
	sb := 3
	switch {
	case n < 1<<12:
		sb = 0
	case n < 1<<16:
		sb = 1
	case n < 1<<20:
		sb = 2
	}
	// Sortedness probe: adjacent-pair inversions at ~64 sampled
	// positions. Nearly-sorted data inverts rarely; random data
	// inverts half the time.
	step := n/64 + 1
	inv, pairs := 0, 0
	for i := step; i < n; i += step {
		pairs++
		if xs[i-1] > xs[i] {
			inv++
		}
	}
	sorted := 0
	if pairs > 0 && inv*8 < pairs {
		sorted = 1
	}
	return (wb*4+sb)*2 + sorted
}

// Sort's variant indices, in Variants order.
const (
	sortSample = iota
	sortRadix
	sortCounting
)

// sortDefaultTable is the variant sort runs without a controller, per
// sortFeature class: [width bucket][size bucket][sorted bit]. It is read
// off BenchmarkSortClasses, which times every variant at Procs 1 on
// fourteen input shapes at 1 Ki to 1 Mi elements, each row cycling
// through 16 fresh inputs so the branch predictor cannot learn one
// (BENCHMARKS.md, "The sort default"; re-read in "Top-digit radix
// leaf" and, from 64 Ki up, in "Wide digits"). Each class takes the
// variant whose worst ratio to the fastest variant, over the shapes
// falling in the class, is lowest; near ties (within 10 %) go to
// sample, then radix, since counting sort on a spread of 2^20 or more
// is radix sort plus a min/max pass.
// Counting sort costs O(n + spread) whatever the order, so it wins on
// dense keys. Radix sort wins on unsorted keys wider than that at every
// size. On 17–32-bit keys at 64 Ki to 1 Mi elements the stride-2
// reversed ramp's equal power-of-two buckets cost radix about 3×
// counting sort, but counting's worst, a 20-bit spread at 64 Ki, costs
// more since the radix leaf's digits are 11 bits wide from 64 Ki keys
// up (BENCHMARKS.md, "Wide digits"). Sample sort (quicksort at Procs 1)
// keeps nearly sorted keys of 9 bits and more below the dense edge,
// where its comparisons predict well and the radix leaf reads 1.2–2.8×,
// except 17–32-bit keys from 64 Ki up: there the wide-digit leaf reads
// fastest and quicksort 1.2–1.3× it.
var sortDefaultTable = [4][4][2]uint8{
	// Size buckets < 4 Ki, < 64 Ki, < 1 Mi, >= 1 Mi elements; each
	// {unsorted, nearly sorted}.
	{{sortCounting, sortCounting}, {sortCounting, sortCounting}, {sortCounting, sortCounting}, {sortCounting, sortCounting}}, // dense: spread < max(256, n)
	{{sortRadix, sortSample}, {sortRadix, sortSample}, {sortCounting, sortCounting}, {sortCounting, sortCounting}},           // 9–16 bits
	{{sortRadix, sortSample}, {sortRadix, sortSample}, {sortRadix, sortRadix}, {sortRadix, sortRadix}},                       // 17–32 bits
	{{sortRadix, sortSample}, {sortRadix, sortSample}, {sortRadix, sortSample}, {sortRadix, sortSample}},                     // wider
}

// sortDefault is sort's Kernel.Default: sortDefaultTable at the class
// sortFeature packed, and sample for classes it never produces.
func sortDefault(class int) int {
	wb, sb, sorted := class/8, class/2%4, class%2
	if class < 0 || wb >= len(sortDefaultTable) {
		return sortSample
	}
	return int(sortDefaultTable[wb][sb][sorted])
}

// sortDistributions is the input-shape rotation Gen("sort") cycles
// through by seed; odd seeds additionally mask keys to 16 bits so the
// narrow-key regime is always covered.
var sortDistributions = []gen.Distribution{gen.Uniform, gen.NearlySorted, gen.Reversed, gen.FewUnique}

func genSort(n int, seed uint64) *Args {
	xs := gen.Ints(n, sortDistributions[seed%uint64(len(sortDistributions))], seed)
	if seed%2 == 1 {
		for i := range xs {
			xs[i] &= 0xFFFF
		}
	}
	return &Args{Xs: xs}
}

// runSum is the sum adapter. The explicit serial loop at Procs 1 is
// what keeps the serve batch slot allocation-free: par.Sum builds
// reduce closures that escape into par.Reduce, which costs heap even
// when the cutoff sends the whole range down the sequential path.
func runSum(a *Args, o par.Options) {
	if o.Procs == 1 {
		var acc int64
		for _, v := range a.Xs {
			acc += v
		}
		a.Out = acc
		return
	}
	a.Out = par.Sum(a.Xs, o)
}

// runScan is the scan adapter. At Procs 1 it is a direct loop, as
// runSum is for sum: par.ScanInclusive's serial path makes one combine
// call per element. Each Xs[i] is read before Dst[i] is written, so Dst
// may alias Xs, as par.ScanInclusive also allows.
func runScan(a *Args, o par.Options) {
	if o.Procs == 1 {
		var acc int64
		for i, v := range a.Xs {
			acc += v
			a.Dst[i] = acc
		}
		return
	}
	par.ScanInclusive(a.Dst, a.Xs, o, 0, func(x, y int64) int64 { return x + y })
}

// sortKernel is the installed sort descriptor, held so its long-route
// adapter can go through the kernel's own dispatch.
var sortKernel *Kernel

// longSort is sort's long-route adapter: one call of the kernel's own
// dispatch (Run → psort) under the route's options. Sorting is a
// blocking operator — nothing leaves before everything arrived — so a
// chunk cascade buys it no overlap and costs a merge tree, two extra
// copies of the input and three stage goroutines; measured against the
// one-shot call it lost at every size (BENCHMARKS.md, E29).
func longSort(a *Args, opts par.Options) error {
	sortKernel.Run(a, opts)
	return nil
}

// longScan is scan's long-route adapter: one runScan call under the
// route's options, like longSort. Streaming the input through a
// running-sum pipeline cost 1.3–8× the one-shot call (BENCHMARKS.md,
// "The long route") and allocated a pipeline per request.
func longScan(a *Args, opts par.Options) error {
	runScan(a, opts)
	return nil
}

func init() {
	sortKernel = Register(Kernel{
		Name:  "sort",
		Title: "sort Xs ascending in place",
		Variants: []Variant{
			{Name: "sample", Run: func(a *Args, o par.Options) { psort.SampleSort(a.Xs, o) }},
			{Name: "radix", Run: func(a *Args, o par.Options) { psort.RadixSort(a.Xs, o) }},
			{Name: "counting", Run: func(a *Args, o par.Options) { psort.CountingSort(a.Xs, o) }},
		},
		Serial:  func(a *Args) { seq.Quicksort(a.Xs) },
		Gen:     genSort,
		Check:   eqXs,
		Feature: sortFeature,
		Default: sortDefault,
		Stream:  longSort,
		Delta:   sortDelta,
		Out:     OutXs,
		Cache:   true,
		Meta: []MetaRelation{
			{
				Name:   "permutation",
				Mutate: shuffleXs,
				Relate: eqXs,
			},
			{
				Name: "translation",
				Mutate: func(a *Args, _ *rng.Rand) {
					for i := range a.Xs {
						a.Xs[i] += translationDelta
					}
				},
				Relate: func(base, mut *Args) error {
					for i := range base.Xs {
						if mut.Xs[i] != base.Xs[i]+translationDelta {
							return fmt.Errorf("Xs[%d] = %d, want %d", i, mut.Xs[i], base.Xs[i]+translationDelta)
						}
					}
					return nil
				},
			},
		},
	})

	Register(Kernel{
		Name:  "select",
		Title: "K-th smallest of Xs into Out (Xs unmodified)",
		Variants: []Variant{
			{Name: "quickselect", Run: func(a *Args, o par.Options) { a.Out = psel.Select(a.Xs, a.K, o) }},
		},
		Serial: func(a *Args) { a.Out = psel.SelectSeq(a.Xs, a.K) },
		Validate: func(a *Args) error {
			if a.K < 0 || a.K >= len(a.Xs) {
				return fmt.Errorf("kernel: select rank %d out of range [0,%d)", a.K, len(a.Xs))
			}
			return nil
		},
		Gen: func(n int, seed uint64) *Args {
			if n < 1 {
				n = 1
			}
			xs := gen.Ints(n, gen.Uniform, seed)
			return &Args{Xs: xs, K: int(seed) % n}
		},
		Check: func(got, want *Args) error {
			if got.Out != want.Out {
				return fmt.Errorf("Out = %d, want %d", got.Out, want.Out)
			}
			return nil
		},
		Out:   OutScalar,
		Cache: true,
		Meta: []MetaRelation{
			{
				Name:   "permutation",
				Mutate: shuffleXs,
				Relate: func(base, mut *Args) error {
					if base.Out != mut.Out {
						return fmt.Errorf("Out = %d after permutation, want %d", mut.Out, base.Out)
					}
					return nil
				},
			},
		},
	})

	Register(Kernel{
		Name:  "histogram",
		Title: "count Bucket(x) occurrences over Xs into Hist",
		Variants: []Variant{
			{Name: "par", Run: func(a *Args, o par.Options) { par.HistogramInto(a.Hist, a.Xs, o, a.Bucket) }},
		},
		Serial: func(a *Args) {
			clear(a.Hist)
			for _, v := range a.Xs {
				a.Hist[a.Bucket(v)]++
			}
		},
		Validate: func(a *Args) error {
			if a.Bucket == nil {
				return fmt.Errorf("kernel: histogram with nil bucket function")
			}
			if len(a.Hist) == 0 && len(a.Xs) > 0 {
				return fmt.Errorf("kernel: histogram with no buckets")
			}
			return nil
		},
		Gen: func(n int, seed uint64) *Args {
			return &Args{
				Xs:     gen.Ints(n, gen.Zipf, seed),
				Hist:   make([]int, 256),
				Bucket: func(v int64) int { return int(uint64(v) & 0xFF) },
			}
		},
		Check: func(got, want *Args) error {
			if len(got.Hist) != len(want.Hist) {
				return fmt.Errorf("Hist length %d != %d", len(got.Hist), len(want.Hist))
			}
			for i := range got.Hist {
				if got.Hist[i] != want.Hist[i] {
					return fmt.Errorf("Hist[%d] = %d, want %d", i, got.Hist[i], want.Hist[i])
				}
			}
			return nil
		},
		// Not cacheable: the bucket function cannot be fingerprinted.
		// The mergeable-summary property still gives it a delta path.
		Delta: histogramDelta,
		Out:   OutHist,
		Meta: []MetaRelation{
			{
				Name:   "permutation",
				Mutate: shuffleXs,
				Relate: func(base, mut *Args) error {
					for i := range base.Hist {
						if base.Hist[i] != mut.Hist[i] {
							return fmt.Errorf("Hist[%d] = %d after permutation, want %d", i, mut.Hist[i], base.Hist[i])
						}
					}
					return nil
				},
			},
		},
	})

	Register(Kernel{
		Name:  "scan",
		Title: "inclusive prefix sums of Xs into Dst",
		Variants: []Variant{
			{Name: "par", Run: runScan},
		},
		Serial: func(a *Args) { seq.Scan(a.Dst, a.Xs) },
		Validate: func(a *Args) error {
			if len(a.Dst) != len(a.Xs) {
				return fmt.Errorf("kernel: scan dst length %d != input length %d", len(a.Dst), len(a.Xs))
			}
			return nil
		},
		Gen: func(n int, seed uint64) *Args {
			return &Args{Xs: gen.Ints(n, gen.Uniform, seed), Dst: make([]int64, n)}
		},
		Check: func(got, want *Args) error {
			for i := range got.Dst {
				if got.Dst[i] != want.Dst[i] {
					return fmt.Errorf("Dst[%d] = %d, want %d", i, got.Dst[i], want.Dst[i])
				}
			}
			return nil
		},
		Delta:  scanDelta,
		Out:    OutDst,
		Cache:  true,
		Stream: longScan,
		Meta: []MetaRelation{
			{
				Name: "linearity",
				Mutate: func(a *Args, _ *rng.Rand) {
					for i := range a.Xs {
						a.Xs[i] *= 3
					}
				},
				Relate: func(base, mut *Args) error {
					// Exact under int64 wraparound: both sides are the same
					// ring element.
					for i := range base.Dst {
						if mut.Dst[i] != 3*base.Dst[i] {
							return fmt.Errorf("Dst[%d] = %d, want %d", i, mut.Dst[i], 3*base.Dst[i])
						}
					}
					return nil
				},
			},
		},
	})

	Register(Kernel{
		Name:  "sum",
		Title: "sum of Xs into Out",
		Variants: []Variant{
			{Name: "par", Run: runSum},
		},
		Serial: func(a *Args) {
			var acc int64
			for _, v := range a.Xs {
				acc += v
			}
			a.Out = acc
		},
		Gen: func(n int, seed uint64) *Args {
			return &Args{Xs: gen.Ints(n, gen.Uniform, seed)}
		},
		Check: func(got, want *Args) error {
			if got.Out != want.Out {
				return fmt.Errorf("Out = %d, want %d", got.Out, want.Out)
			}
			return nil
		},
		Delta: sumDelta,
		Out:   OutScalar,
		Cache: true,
		Meta: []MetaRelation{
			{
				Name:   "permutation",
				Mutate: shuffleXs,
				Relate: func(base, mut *Args) error {
					if base.Out != mut.Out {
						return fmt.Errorf("Out = %d after permutation, want %d", mut.Out, base.Out)
					}
					return nil
				},
			},
		},
	})

	Register(Kernel{
		Name:  "bfs",
		Title: "hop distances from Src in G into Dist (-1 unreachable)",
		Variants: []Variant{
			{Name: "frontier", Run: func(a *Args, o par.Options) { a.Dist = pgraph.BFS(a.G, a.Src, o) }},
		},
		Serial: serialBFS,
		Validate: func(a *Args) error {
			if a.G == nil || a.Src < 0 || a.Src >= a.G.N() {
				return fmt.Errorf("kernel: bfs source %d out of range", a.Src)
			}
			return nil
		},
		Gen:   genBFS,
		Check: checkDist,
		Meta: []MetaRelation{
			{
				// Duplicating an existing edge (or adding a self-loop on an
				// empty edge set) cannot change any hop distance.
				Name:   "duplicate-edge",
				Mutate: duplicateEdge,
				Relate: checkDist,
			},
		},
		Out:       OutDist,
		Allocates: true, // BFS returns a freshly allocated distance slice
	})
}

// genBFS builds a ring of n nodes plus 2n random chords: connected,
// deterministic, with nontrivial hop distances.
func genBFS(n int, seed uint64) *Args {
	if n < 1 {
		n = 1
	}
	r := rng.New(seed + 1)
	edges := make([]graph.Edge, 0, 3*n)
	for v := 1; v < n; v++ {
		edges = append(edges, graph.Edge{U: v - 1, V: v})
	}
	if n > 2 {
		edges = append(edges, graph.Edge{U: n - 1, V: 0})
		for i := 0; i < 2*n; i++ {
			edges = append(edges, graph.Edge{U: r.Intn(n), V: r.Intn(n)})
		}
	}
	return &Args{G: graph.MustBuild(n, edges, false), Src: 0}
}

// serialBFS is the textbook queue BFS — independent of the parallel
// frontier implementation, which is what makes it an oracle.
func serialBFS(a *Args) {
	g, src := a.G, a.Src
	dist := make([]int32, g.N())
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue := []int32{int32(src)}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range g.Neighbors(int(u)) {
			if dist[v] < 0 {
				dist[v] = dist[u] + 1
				queue = append(queue, v)
			}
		}
	}
	a.Dist = dist
}

func checkDist(got, want *Args) error {
	if len(got.Dist) != len(want.Dist) {
		return fmt.Errorf("Dist length %d != %d", len(got.Dist), len(want.Dist))
	}
	for i := range got.Dist {
		if got.Dist[i] != want.Dist[i] {
			return fmt.Errorf("Dist[%d] = %d, want %d", i, got.Dist[i], want.Dist[i])
		}
	}
	return nil
}

func duplicateEdge(a *Args, r *rng.Rand) {
	es := a.G.Edges()
	if len(es) == 0 {
		es = append(es, graph.Edge{U: 0, V: 0})
	} else {
		es = append(es, es[r.Intn(len(es))])
	}
	a.G = graph.MustBuild(a.G.N(), es, false)
}
