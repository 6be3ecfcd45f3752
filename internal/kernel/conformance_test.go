// Conformance is the registry's contract test (package kernel_test so
// it can drive the serve runtime, which imports kernel): one
// table-driven sweep asserting that every registered kernel — present
// and future — has a working serial oracle, a live adaptive site, and
// an allocation-free ride through the serve batch path. A kernel that
// registers but fails any clause breaks this test by name.
package kernel_test

import (
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
					a := k.Gen(4096, 1)
					// Warm the pools and the variant lattice's exploration
					// sweep so steady state is what gets measured.
					for i := 0; i < 64; i++ {
						if err := s.CallBudget("conformance", k, a, 0); err != nil {
							t.Fatal(err)
						}
					}
					// A GC between runs can repopulate sync.Pools on the
					// measured iteration; retry before declaring a leak.
					var allocs float64
					for attempt := 0; attempt < 3; attempt++ {
						allocs = testing.AllocsPerRun(100, func() {
							if err := s.CallBudget("conformance", k, a, 0); err != nil {
								t.Fatal(err)
							}
						})
						if allocs == 0 {
							break
						}
					}
					if allocs != 0 {
						t.Errorf("serve batch path allocates %.2f allocs/op; want 0", allocs)
					}
				})
			}
		})
	}
}
