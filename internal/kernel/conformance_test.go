// Conformance is the registry's contract test (package kernel_test so
// it can drive the serve runtime, which imports kernel): one
// table-driven sweep asserting that every registered kernel — present
// and future — has a working serial oracle and an allocation-free
// ride through the serve batch path. A kernel that
// registers but fails any clause breaks this test by name.
package kernel_test

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/kernel"
	"repro/internal/par"
	"repro/internal/serve"
)

func TestKernelConformance(t *testing.T) {
	for _, k := range kernel.All() {
		k := k
		t.Run(k.Name, func(t *testing.T) {
			// Descriptor completeness: Register enforces these, so a
			// failure here means the registration path regressed.
			if k.Serial == nil || k.Gen == nil || k.Check == nil || len(k.Variants) == 0 {
				t.Fatal("descriptor incomplete")
			}
			if len(k.Meta) == 0 {
				t.Error("no metamorphic relations declared")
			}

			t.Run("oracle", func(t *testing.T) {
				// One smoke differential round per seed: the dispatched
				// entrypoint against the serial oracle (the full matrix
				// lives in internal/difftest).
				for seed := uint64(0); seed < 2; seed++ {
					got := k.Gen(4096, seed)
					want := k.Gen(4096, seed)
					k.Serial(want)
					k.Run(got, par.Options{Procs: 2, SerialCutoff: 1, Grain: 64})
					if err := k.Check(got, want); err != nil {
						t.Fatalf("seed %d: %v", seed, err)
					}
				}
			})

			if !k.Allocates {
				t.Run("serve-zero-alloc", func(t *testing.T) {
					// s has the benchmark's shape, two 1-worker shards;
					// plain is the zero-config one-shard server.
					s := serve.NewSharded(serve.ShardedConfig{Shards: 2, ShardProcs: 1})
					defer s.Close()
					serveZeroAllocs(t, s, k, k.Gen(4096, 1))
					plain := serve.NewSharded(serve.ShardedConfig{Shards: 1})
					defer plain.Close()
					// Above 4 096 elements, where Select leaves its serial
					// leaf when given more than one worker, and below
					// DefaultPipelineCutoff, so still the batch slot; on
					// both servers.
					for _, n := range []int{1 << 13, 1 << 16} {
						a := k.Gen(n, 1)
						t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
							serveZeroAllocs(t, s, k, a)
						})
						t.Run(fmt.Sprintf("n=%d/plain", n), func(t *testing.T) {
							serveZeroAllocs(t, plain, k, a)
						})
						if k.Name == "select" {
							// Gen seed 1 asks for rank 1, whose bracket has
							// no lower side; the median selects both of its
							// ends from the leaf's sample buffer.
							half := k.Gen(n, 1)
							half.K = n / 2
							t.Run(fmt.Sprintf("n=%d/rank=half", n), func(t *testing.T) {
								serveZeroAllocs(t, plain, k, half)
							})
						}
					}
					if k.Default == nil {
						return
					}
					// Default picks per input: pin one Gen input for each
					// variant it picks.
					for _, a := range defaultInputs(k) {
						t.Run("default="+k.Variants[k.Default(k.Feature(a))].Name, func(t *testing.T) {
							serveZeroAllocs(t, plain, k, a)
						})
					}
				})
			}
		})
	}
}

// serveZeroAllocs warms s on a and then requires the serve batch path
// to run it allocation-free. a's Xs is restored before every call, so a
// kernel that sorts in place keeps the input's feature class.
func serveZeroAllocs(t *testing.T, s *serve.Sharded, k *kernel.Kernel, a *kernel.Args) {
	t.Helper()
	base := slices.Clone(a.Xs)
	call := func() {
		copy(a.Xs, base)
		if err := s.CallBudget("conformance", k, a, 0); err != nil {
			t.Fatal(err)
		}
	}
	// Warm the pools so steady state is what gets measured.
	for i := 0; i < 64; i++ {
		call()
	}
	// A GC between runs can repopulate sync.Pools on the measured
	// iteration; retry before declaring a leak.
	var allocs float64
	for attempt := 0; attempt < 3; attempt++ {
		if allocs = testing.AllocsPerRun(100, call); allocs == 0 {
			return
		}
	}
	t.Errorf("serve batch path allocates %.2f allocs/op; want 0", allocs)
}

// defaultInputs returns one input per variant k's Default picks: the
// first eight Gen seeds at 4 096 and 1 024 elements, each as generated
// and with its keys sorted. Sort needs the sorted copies: every Gen
// shape is dense or wide and unsorted, and those classes run counting
// or radix sort, so sample sort only shows on sorted wide keys.
func defaultInputs(k *kernel.Kernel) []*kernel.Args {
	var out []*kernel.Args
	seen := map[int]bool{}
	for _, n := range []int{4096, 1024} {
		for seed := uint64(0); seed < 8; seed++ {
			gen := k.Gen(n, seed)
			sorted := k.Gen(n, seed)
			slices.Sort(sorted.Xs)
			for _, a := range []*kernel.Args{gen, sorted} {
				if v := k.Default(k.Feature(a)); !seen[v] {
					seen[v] = true
					out = append(out, a)
				}
			}
		}
	}
	return out
}
