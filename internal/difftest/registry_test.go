package difftest

import (
	"fmt"
	"testing"

	"repro/internal/kernel"
	"repro/internal/par"
)

// seedCount is the input-shape axis for registry kernels: each
// kernel's Gen maps seeds to different distributions, key widths and
// sortedness regimes (the sort kernel rotates uniform / nearly-sorted
// / reversed / few-unique and narrows keys on odd seeds), so sweeping
// seeds sweeps the adversarial inputs the hand-rolled tests used to
// enumerate by hand.
const seedCount = 4

// TestDiffRegistryKernels is the registry-derived differential
// matrix: every registered kernel × size × seed × configuration,
// with the dispatched entrypoint checked against the kernel's serial
// oracle. Registering a kernel buys this coverage with no edits here.
func TestDiffRegistryKernels(t *testing.T) {
	matrix := smallMatrix()
	for _, k := range kernel.All() {
		t.Run(k.Name, func(t *testing.T) {
			for _, n := range sizes() {
				for seed := uint64(0); seed < seedCount; seed++ {
					want := k.Gen(n, seed)
					k.Serial(want)
					t.Run(fmt.Sprintf("n%d/seed%d", n, seed), func(t *testing.T) {
						forEach(t, matrix, func(t *testing.T, opts par.Options) {
							got := k.Gen(n, seed)
							if k.Validate != nil {
								if err := k.Validate(got); err != nil {
									t.Fatalf("Gen produced invalid args: %v", err)
								}
							}
							k.Run(got, opts)
							if err := k.Check(got, want); err != nil {
								t.Fatal(err)
							}
						})
					})
				}
			}
		})
	}
}

// TestDiffRegistryVariants oracle-checks every algorithm variant
// individually — dispatch may route around a broken variant for whole
// input regimes, so each one is pinned against the serial oracle on
// every input shape, not just the shapes Default sends it.
func TestDiffRegistryVariants(t *testing.T) {
	for _, k := range kernel.All() {
		if len(k.Variants) < 2 {
			continue // single variant: already covered by the dispatched matrix
		}
		t.Run(k.Name, func(t *testing.T) {
			for i, v := range k.Variants {
				t.Run(v.Name, func(t *testing.T) {
					for _, n := range sizes() {
						for seed := uint64(0); seed < seedCount; seed++ {
							want := k.Gen(n, seed)
							k.Serial(want)
							for _, p := range procCounts() {
								got := k.Gen(n, seed)
								k.RunVariant(i, got, par.Options{Procs: p, Grain: 64, SerialCutoff: 1})
								if err := k.Check(got, want); err != nil {
									t.Fatalf("n%d/seed%d/p%d: %v", n, seed, p, err)
								}
							}
						}
					}
				})
			}
		})
	}
}
