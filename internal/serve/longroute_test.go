package serve

import (
	"fmt"
	"testing"

	"repro/internal/exec"
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
// an unsharded Server on a 2-worker executor, where a long sort is a
// parallel sort over that executor, and two 1-worker shards (parserve's
// shape), where it is the serial leaf on the caller's goroutine — each
// with a scratch pool of its own so the test can read its live gauge.
func longRouteFronts(t *testing.T) []longRouteFront {
	e := exec.New(2)
	sp, gp := scratch.New(), scratch.New()
	s := New(Config{Executor: e, Scratch: sp, PipelineCutoff: longRouteCutoff})
	g := NewSharded(ShardedConfig{Shards: 2, ShardProcs: 1,
		Config: Config{Scratch: gp, PipelineCutoff: longRouteCutoff}})
	t.Cleanup(func() {
		g.Close()
		s.Close()
		e.Close()
	})
	return []longRouteFront{
		{"server", s, s.Stats, sp},
		{"sharded", g, func() Stats { return g.Stats().Aggregate }, gp},
	}
}

// TestLongRouteSortMatchesSerial holds the long route's sort to the
// kernel's serial oracle on every input shape sort's Gen rotates
// through, with narrow and wide keys, at sizes straddling the cutoff
// and at the benchmark's long size — and checks the route's ledger:
// exactly the requests at or above the cutoff count as Pipelined, the
// rest ride batches, and every scratch buffer is back in its pool.
func TestLongRouteSortMatchesSerial(t *testing.T) {
	k := kernel.MustLookup("sort")
	shapes := []gen.Distribution{gen.Uniform, gen.NearlySorted, gen.Reversed, gen.FewUnique}
	sizes := []int{longRouteCutoff - 1, longRouteCutoff, longRouteCutoff + 1, 1 << 18}
	for _, f := range longRouteFronts(t) {
		t.Run(f.name, func(t *testing.T) {
			var long, short int64
			for si, d := range shapes {
				for _, narrow := range []bool{false, true} {
					for _, n := range sizes {
						xs := gen.Ints(n, d, uint64(100+si))
						if narrow {
							for i := range xs {
								xs[i] &= 0xFFFF
							}
						}
						want := kernel.Args{Xs: append([]int64(nil), xs...)}
						k.Serial(&want)
						got := kernel.Args{Xs: xs}
						if err := f.front.CallBudget(fmt.Sprintf("t%d", si), k, &got, 0); err != nil {
							t.Fatalf("%v narrow=%v n=%d: %v", d, narrow, n, err)
						}
						if err := k.Check(&got, &want); err != nil {
							t.Fatalf("%v narrow=%v n=%d: %v", d, narrow, n, err)
						}
						if n >= longRouteCutoff {
							long++
						} else {
							short++
						}
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

// TestLongRouteSortZeroAllocs pins what leaving the chunk cascade
// bought besides time: on a 1-worker shard a warm long-route sort is
// the pooled request record plus the serial leaf and allocates nothing,
// where the cascade built channels, a free list and three goroutines
// per call. Without a controller the leaf is the sort's default for the
// input, so the pin covers one input for each algorithm it picks here:
// wide keys (radix) and narrow keys (counting).
func TestLongRouteSortZeroAllocs(t *testing.T) {
	if racecheck.Enabled {
		t.Skip("race instrumentation allocates")
	}
	g := NewSharded(ShardedConfig{Shards: 2, ShardProcs: 1, Config: Config{PipelineCutoff: longRouteCutoff}})
	defer g.Close()
	k := kernel.MustLookup("sort")
	inputs := []struct {
		variant string
		base    []int64
	}{
		{"radix", gen.Ints(2*longRouteCutoff, gen.Uniform, 7)},
		{"counting", gen.Ints(2*longRouteCutoff, gen.Uniform, 8)},
	}
	for i := range inputs[1].base {
		inputs[1].base[i] &= 0xFFFF
	}
	for _, in := range inputs {
		if got := k.Variants[k.Default(k.Feature(&kernel.Args{Xs: in.base}))].Name; got != in.variant {
			t.Fatalf("input meant for %s defaults to %s", in.variant, got)
		}
		a := kernel.Args{Xs: make([]int64, len(in.base))}
		run := func() {
			copy(a.Xs, in.base)
			if err := g.CallBudget("t", k, &a, 0); err != nil {
				t.Fatal(err)
			}
		}
		run() // warm the request pool
		if got := testing.AllocsPerRun(20, run); got != 0 {
			t.Errorf("long-route sort (%s): %.1f allocs/call, want 0", in.variant, got)
		}
	}
	if st := g.Stats().Aggregate; st.Pipelined != 22*int64(len(inputs)) || st.BatchedRequests != 0 {
		t.Errorf("pipelined=%d batched=%d: the calls did not take the long route", st.Pipelined, st.BatchedRequests)
	}
}
