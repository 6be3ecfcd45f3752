package kernel

import (
	"fmt"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/par"
	"repro/internal/rng"
)

// deltaFor builds a kernel-appropriate update of roughly dk elements:
// appended values for the slice kernels, inserted edges for cc.
func deltaFor(k *Kernel, a *Args, dk int, seed uint64) *Delta {
	if k.Name == "cc" {
		n := a.G.N()
		r := rng.New(seed*31 + 5)
		edges := make([]graph.Edge, dk)
		for i := range edges {
			edges[i] = graph.Edge{U: r.Intn(n), V: r.Intn(n)}
		}
		return &Delta{Edges: edges}
	}
	return &Delta{Append: gen.Ints(dk, gen.Uniform, seed*127+9)}
}

// TestDeltaMatchesFullRecompute is the differential contract of every
// delta adapter: Serial(base) then RunDelta(delta) must leave the
// record's outputs exactly as Serial on the updated input would.
func TestDeltaMatchesFullRecompute(t *testing.T) {
	for _, k := range All() {
		if k.Delta == nil {
			continue
		}
		t.Run(k.Name, func(t *testing.T) {
			for _, n := range []int{0, 1, 5, 100, 1000} {
				for _, dk := range []int{0, 1, 7, 64} {
					for seed := uint64(0); seed < 3; seed++ {
						if err := deltaVsRerun(k, n, dk, seed); err != nil {
							t.Fatalf("n=%d dk=%d seed=%d: %v", n, dk, seed, err)
						}
					}
				}
			}
		})
	}
}

// deltaVsRerun makes a record of Gen(n, seed) current with Serial, folds
// a dk-element delta into it with RunDelta, and reports whether the
// result differs from Serial on the updated input.
func deltaVsRerun(k *Kernel, n, dk int, seed uint64) error {
	a := k.Gen(n, seed)
	k.Serial(a)
	d := deltaFor(k, a, dk, seed)
	if err := k.RunDelta(a, d, par.Options{}); err != nil {
		return fmt.Errorf("RunDelta: %v", err)
	}
	want := k.Gen(n, seed) // deterministic: same pristine input
	applyToInput(k, want, d)
	k.Serial(want)
	if err := k.Check(a, want); err != nil {
		return fmt.Errorf("delta result diverges from full recompute: %v", err)
	}
	return nil
}

// Fuzzed record and delta sizes stay below these bounds, so the
// engine's minimizer, which reruns an input thousands of times, stays
// quick.
const (
	maxDeltaFuzzN  = 1 << 12
	maxDeltaFuzzDk = 1 << 10
)

// FuzzDeltaVsRerun holds every kernel with a Delta adapter to a full
// rerun over fuzzed seeds, record sizes and delta lengths. No workload
// sends deltas, so this and the tests above are the delta path's only
// guard.
func FuzzDeltaVsRerun(f *testing.F) {
	f.Add(uint64(0), uint16(0), uint16(0))
	f.Add(uint64(1), uint16(1), uint16(1))
	f.Add(uint64(2), uint16(15), uint16(40))
	f.Add(uint64(3), uint16(1000), uint16(7))
	f.Add(uint64(1<<63), uint16(4096), uint16(1024))
	var ks []*Kernel
	for _, k := range All() {
		if k.Delta != nil {
			ks = append(ks, k)
		}
	}
	f.Fuzz(func(t *testing.T, seed uint64, n, dk uint16) {
		size, dsize := int(n)%(maxDeltaFuzzN+1), int(dk)%(maxDeltaFuzzDk+1)
		for _, k := range ks {
			if err := deltaVsRerun(k, size, dsize, seed); err != nil {
				t.Fatalf("%s n=%d dk=%d seed=%d: %v", k.Name, size, dsize, seed, err)
			}
		}
	})
}

// applyToInput rewrites a pristine generated record's *input* to
// include the delta, so Serial on it is the full-recompute oracle.
func applyToInput(k *Kernel, a *Args, d *Delta) {
	if k.Name == "cc" {
		es := append(a.G.Edges(), d.Edges...)
		a.G = graph.MustBuild(a.G.N(), es, false)
		return
	}
	a.Xs = append(a.Xs, d.Append...)
	if k.Name == "scan" {
		a.Dst = make([]int64, len(a.Xs))
	}
}

// TestDeltaRepeatedApplications chains several deltas through one
// record — the standing-query shape — and checks the final state once.
func TestDeltaRepeatedApplications(t *testing.T) {
	for _, k := range All() {
		if k.Delta == nil {
			continue
		}
		t.Run(k.Name, func(t *testing.T) {
			const n = 300
			a := k.Gen(n, 1)
			want := k.Gen(n, 1)
			k.Serial(a)
			for step := uint64(0); step < 5; step++ {
				d := deltaFor(k, a, 17, 100+step)
				if err := k.RunDelta(a, d, par.Options{}); err != nil {
					t.Fatalf("step %d: RunDelta: %v", step, err)
				}
				applyToInput(k, want, d)
			}
			k.Serial(want)
			if err := k.Check(a, want); err != nil {
				t.Fatalf("after 5 chained deltas: %v", err)
			}
		})
	}
}

// TestRunDeltaWithoutAdapter: kernels that declare no delta adapter
// refuse loudly instead of silently no-opping.
func TestRunDeltaWithoutAdapter(t *testing.T) {
	k := MustLookup("select")
	if k.Delta != nil {
		t.Skip("select grew a delta adapter; pick another kernel")
	}
	a := k.Gen(16, 0)
	if err := k.RunDelta(a, &Delta{Append: []int64{1}}, par.Options{}); err == nil {
		t.Fatal("RunDelta on adapterless kernel returned nil error")
	}
}

// TestDeltaEmptyIsNoop: an empty delta leaves the record untouched.
func TestDeltaEmptyIsNoop(t *testing.T) {
	for _, k := range All() {
		if k.Delta == nil {
			continue
		}
		a := k.Gen(64, 2)
		k.Serial(a)
		want := k.Gen(64, 2)
		k.Serial(want)
		var d Delta
		if err := k.RunDelta(a, &d, par.Options{}); err != nil {
			t.Fatalf("%s: empty delta errored: %v", k.Name, err)
		}
		if err := k.Check(a, want); err != nil {
			t.Fatalf("%s: empty delta changed outputs: %v", k.Name, err)
		}
	}
}

// TestCcDeltaRejectsOutOfRangeEdge pins the adapter's bounds check.
func TestCcDeltaRejectsOutOfRangeEdge(t *testing.T) {
	k := MustLookup("cc")
	a := k.Gen(10, 0)
	k.Serial(a)
	bad := &Delta{Edges: []graph.Edge{{U: 0, V: a.G.N()}}}
	if err := k.RunDelta(a, bad, par.Options{}); err == nil {
		t.Fatal("cc delta accepted an out-of-range edge")
	}
}
