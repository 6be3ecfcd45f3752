// Conformance is the registry's contract test (package kernel_test so
// it can drive the serve runtime, which imports kernel): one
// table-driven sweep asserting that every registered kernel — present
// and future — has a working serial oracle, a live adaptive site, and
// an allocation-free ride through the serve batch path. A kernel that
// registers but fails any clause breaks this test by name.
package kernel_test

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/adapt"
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

			t.Run("adaptive-site", func(t *testing.T) {
				// Every kernel must consult the adaptive layer somewhere:
				// multi-variant kernels through their variant lattice,
				// single-variant kernels through the sites inside their
				// implementation (grain/policy/worker lattices).
				ctl := adapt.New(adapt.Config{Epsilon: 1, ConvergeAfter: 1 << 30, Seed: 7})
				a := k.Gen(1<<14, 0)
				// The dispatch class must be read before Run mutates the
				// input (sorting flips the sortedness feature bit).
				class := 0
				if k.Feature != nil {
					class = k.Feature(a)
				}
				k.Run(a, par.Options{Procs: 4, Adaptive: ctl})
				if site := k.Site(); site != nil {
					if ctl.ClassVisits(site, class) == 0 {
						t.Error("variant site recorded no visits")
					}
				}
				if st := ctl.Stats(); st.Decisions == 0 {
					t.Error("no adaptive site consulted the controller")
				}
			})

			if !k.Allocates {
				t.Run("serve-zero-alloc", func(t *testing.T) {
					s := serve.New(serve.Config{Adaptive: adapt.New(adapt.Config{})})
					defer s.Close()
					serveZeroAllocs(t, s, k, k.Gen(4096, 1))
					plain := serve.New(serve.Config{})
					defer plain.Close()
					// Above 4 096 elements, where Select leaves its serial
					// leaf when given more than one worker, and below
					// DefaultPipelineCutoff, so still the batch slot; with
					// and without a controller.
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
					// Without a controller Default picks per input: pin one
					// Gen input for each variant it picks.
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
func serveZeroAllocs(t *testing.T, s *serve.Server, k *kernel.Kernel, a *kernel.Args) {
	t.Helper()
	base := slices.Clone(a.Xs)
	call := func() {
		copy(a.Xs, base)
		if err := s.CallBudget("conformance", k, a, 0); err != nil {
			t.Fatal(err)
		}
	}
	// Warm the pools and the variant lattice's exploration sweep so
	// steady state is what gets measured.
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

// defaultInputs returns one Gen input per variant k's Default picks
// across the first eight Gen seeds at 4 096 and 1 024 elements. Sort
// needs both sizes: at 4 096 every Gen shape is dense or wide and
// unsorted, so sample sort only shows at 1 024.
func defaultInputs(k *kernel.Kernel) []*kernel.Args {
	var out []*kernel.Args
	seen := map[int]bool{}
	for _, n := range []int{4096, 1024} {
		for seed := uint64(0); seed < 8; seed++ {
			a := k.Gen(n, seed)
			if v := k.Default(k.Feature(a)); !seen[v] {
				seen[v] = true
				out = append(out, a)
			}
		}
	}
	return out
}
