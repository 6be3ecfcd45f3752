package serve

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/gen"
	"repro/internal/kernel"
	"repro/internal/racecheck"
	"repro/internal/scratch"
)

// longRouteCutoff is the PipelineCutoff the long-route tests run at:
// low, so the sizes straddling it stay cheap.
const longRouteCutoff = 1 << 12

type longRouteFront struct {
	name  string
	front Front
	stats func() Stats
	pool  *scratch.Pool
}

// longRouteFronts builds the two servers the long route is pinned on —
// one 2-worker shard, where a long sort or scan runs in parallel over
// the shard's executor, and two 1-worker shards
// (parserve's shape), where it is the serial leaf on the caller's
// goroutine — each with a scratch pool of its own so the test can read
// its live gauge.
func longRouteFronts(t *testing.T) []longRouteFront {
	sp, gp := scratch.New(), scratch.New()
	s := NewSharded(ShardedConfig{Shards: 1, ShardProcs: 2,
		Config: Config{Scratch: sp, PipelineCutoff: longRouteCutoff}})
	g := NewSharded(ShardedConfig{Shards: 2, ShardProcs: 1,
		Config: Config{Scratch: gp, PipelineCutoff: longRouteCutoff}})
	t.Cleanup(func() {
		g.Close()
		s.Close()
	})
	return []longRouteFront{
		{"server", s, func() Stats { return s.Stats().Aggregate }, sp},
		{"sharded", g, func() Stats { return g.Stats().Aggregate }, gp},
	}
}

// longRouteRequest is one request the long-route oracle test sends.
type longRouteRequest struct {
	name string
	k    *kernel.Kernel
	a    kernel.Args
}

// longRouteRequests builds the requests of size n: sort on every input
// shape sort's Gen rotates through, with wide and narrow keys, and scan
// into a separate Dst and in place (Dst aliasing Xs).
func longRouteRequests(n int) []longRouteRequest {
	sortK, scanK := kernel.MustLookup("sort"), kernel.MustLookup("scan")
	var out []longRouteRequest
	for si, d := range []gen.Distribution{gen.Uniform, gen.NearlySorted, gen.Reversed, gen.FewUnique} {
		for _, narrow := range []bool{false, true} {
			xs := gen.Ints(n, d, uint64(100+si))
			if narrow {
				for i := range xs {
					xs[i] &= 0xFFFF
				}
			}
			out = append(out, longRouteRequest{fmt.Sprintf("sort %v narrow=%v", d, narrow), sortK, kernel.Args{Xs: xs}})
		}
	}
	xs, inPlace := gen.Ints(n, gen.Uniform, 200), gen.Ints(n, gen.Uniform, 201)
	return append(out,
		longRouteRequest{"scan", scanK, kernel.Args{Xs: xs, Dst: make([]int64, n)}},
		longRouteRequest{"scan in place", scanK, kernel.Args{Xs: inPlace, Dst: inPlace}})
}

// TestLongRouteMatchesSerial holds the long route's sort and scan to
// their kernels' serial oracles at sizes straddling the cutoff and at
// the benchmark's long size — and checks the route's ledger: exactly
// the requests at or above the cutoff count as Pipelined, the rest ride
// batches, and every scratch buffer is back in its pool.
func TestLongRouteMatchesSerial(t *testing.T) {
	sizes := []int{longRouteCutoff - 1, longRouteCutoff, longRouteCutoff + 1, 1 << 18}
	for _, f := range longRouteFronts(t) {
		t.Run(f.name, func(t *testing.T) {
			var long, short int64
			for _, n := range sizes {
				for i, r := range longRouteRequests(n) {
					want := kernel.Args{Xs: slices.Clone(r.a.Xs)}
					if r.a.Dst != nil {
						want.Dst = make([]int64, n)
					}
					r.k.Serial(&want)
					if err := f.front.CallBudget(fmt.Sprintf("t%d", i%4), r.k, &r.a, 0); err != nil {
						t.Fatalf("%s n=%d: %v", r.name, n, err)
					}
					if err := r.k.Check(&r.a, &want); err != nil {
						t.Fatalf("%s n=%d: %v", r.name, n, err)
					}
					if n >= longRouteCutoff {
						long++
					} else {
						short++
					}
				}
			}
			st := f.stats()
			if st.Pipelined != long || st.BatchedRequests != short {
				t.Errorf("pipelined=%d batched=%d, want %d and %d", st.Pipelined, st.BatchedRequests, long, short)
			}
			if st.Accepted != long+short || st.Completed != long+short {
				t.Errorf("accepted=%d completed=%d, want %d", st.Accepted, st.Completed, long+short)
			}
			if live := f.pool.Stats().BytesLive; live != 0 {
				t.Errorf("scratch live = %d bytes after drain, want 0", live)
			}
		})
	}
}

// TestLongRouteZeroAllocs pins what leaving the chunk cascade bought
// besides time: on a 1-worker shard a warm long-route request is the
// pooled request record plus the kernel's serial leaf and allocates
// nothing, where the cascade built channels, a free list and three
// goroutines per call. A long sort runs the sort's default for the
// input, so the pin covers one input for each algorithm it picks here
// — wide keys (radix) at 8 Ki and at wire_bulk's 256 Ki, where the
// radix leaf's digits are 11 bits wide and its 2 048-bucket counts
// must stay off the heap, and dense keys, a spread below n (counting)
// — and one long scan.
func TestLongRouteZeroAllocs(t *testing.T) {
	if racecheck.Enabled {
		t.Skip("race instrumentation allocates")
	}
	g := NewSharded(ShardedConfig{Shards: 2, ShardProcs: 1, Config: Config{PipelineCutoff: longRouteCutoff}})
	defer g.Close()
	sortK, scanK := kernel.MustLookup("sort"), kernel.MustLookup("scan")
	dense := gen.Ints(2*longRouteCutoff, gen.Uniform, 8)
	for i := range dense {
		dense[i] &= 0xFFF
	}
	rows := []struct {
		name string // for sort, the variant its default picks
		k    *kernel.Kernel
		base []int64
	}{
		{"radix", sortK, gen.Ints(2*longRouteCutoff, gen.Uniform, 7)},
		{"radix", sortK, gen.Ints(1<<18, gen.Uniform, 10)},
		{"counting", sortK, dense},
		{"scan", scanK, gen.Ints(2*longRouteCutoff, gen.Uniform, 9)},
	}
	for _, r := range rows {
		a := kernel.Args{Xs: make([]int64, len(r.base))}
		if r.k == sortK {
			if got := r.k.Variants[r.k.Default(r.k.Feature(&kernel.Args{Xs: r.base}))].Name; got != r.name {
				t.Fatalf("input meant for %s defaults to %s", r.name, got)
			}
		} else {
			a.Dst = make([]int64, len(r.base))
		}
		run := func() {
			copy(a.Xs, r.base)
			if err := g.CallBudget("t", r.k, &a, 0); err != nil {
				t.Fatal(err)
			}
		}
		run() // warm the request pool
		if got := testing.AllocsPerRun(20, run); got != 0 {
			t.Errorf("long-route %s, %d keys: %.1f allocs/call, want 0", r.name, len(r.base), got)
		}
	}
	if st := g.Stats().Aggregate; st.Pipelined != 22*int64(len(rows)) || st.BatchedRequests != 0 {
		t.Errorf("pipelined=%d batched=%d: the calls did not take the long route", st.Pipelined, st.BatchedRequests)
	}
}
