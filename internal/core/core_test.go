package core

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/bsp"
	"repro/internal/gen"
	"repro/internal/machine"
	"repro/internal/par"
)

func quickCfg() Config {
	return Config{Quick: true, Reps: 1, Procs: []int{1, 2}, VProcs: []int{1, 4, 16}}
}

func TestTuneGrainPicksACandidate(t *testing.T) {
	res := TuneGrain([]int{8, 64, 512}, 1, func(grain int) {
		par.Sum(gen.Ints(1<<12, gen.Uniform, 1), par.Options{Procs: 2, Grain: grain})
	})
	if _, ok := res.Seconds[res.Best]; !ok {
		t.Fatalf("best %d not among candidates", res.Best)
	}
	if len(res.Seconds) != 3 {
		t.Fatalf("measured %d candidates", len(res.Seconds))
	}
}

func TestTunePolicyCoversAll(t *testing.T) {
	best, times := TunePolicy(1, func(pol par.Policy) {
		par.For(1000, par.Options{Procs: 2, Policy: pol, Grain: 16}, func(i int) {})
	})
	if len(times) != len(par.Policies) {
		t.Fatalf("measured %d policies", len(times))
	}
	if _, ok := times[best]; !ok {
		t.Fatal("best policy not measured")
	}
}

func TestPowersOfTwo(t *testing.T) {
	got := PowersOfTwo(3, 5)
	want := []int{8, 16, 32}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("PowersOfTwo = %v", got)
		}
	}
}

func TestStopwatchPositive(t *testing.T) {
	s := Stopwatch(func() {
		acc := 0
		for i := 0; i < 100000; i++ {
			acc += i
		}
		_ = acc
	})
	if s <= 0 {
		t.Fatalf("Stopwatch = %v", s)
	}
}

func TestFitRecoversSyntheticParameters(t *testing.T) {
	// Build synthetic observations with known (A, B, C).
	a, b, c := 2e-9, 5e-8, 3e-6
	mk := func(w, h float64, s int) Observation {
		trace := make([]machine.Superstep, s)
		for i := range trace {
			trace[i] = machine.Superstep{W: w / float64(s), H: h / float64(s)}
		}
		st := &bsp.Stats{Trace: trace}
		return Observation{Stats: st, Seconds: a*w + b*h + c*float64(s)}
	}
	obs := []Observation{
		mk(1e6, 10, 2), mk(2e6, 100, 2), mk(5e5, 1000, 4),
		mk(4e6, 50, 8), mk(1e5, 5000, 16),
	}
	cal, err := Fit(obs)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(cal.SecPerOp-a)/a > 1e-6 ||
		math.Abs(cal.SecPerWord-b)/b > 1e-6 ||
		math.Abs(cal.SecPerBarrier-c)/c > 1e-6 {
		t.Fatalf("fit = %+v, want (%v,%v,%v)", cal, a, b, c)
	}
	// Prediction on a fresh trace must be near-exact.
	fresh := mk(3e6, 700, 5)
	pred := cal.Predict(fresh.Stats)
	if RelativeError(pred, fresh.Seconds) > 1e-6 {
		t.Fatalf("prediction error %v", RelativeError(pred, fresh.Seconds))
	}
}

func TestFitErrors(t *testing.T) {
	if _, err := Fit(nil); err == nil {
		t.Fatal("empty fit accepted")
	}
	// Degenerate: identical observations make the system singular.
	st := &bsp.Stats{Trace: []machine.Superstep{{W: 1, H: 1}}}
	obs := []Observation{{st, 1}, {st, 1}, {st, 1}}
	if _, err := Fit(obs); err == nil {
		t.Fatal("singular fit accepted")
	}
}

func TestCalibrationBSPParams(t *testing.T) {
	cal := Calibration{SecPerOp: 1e-9, SecPerWord: 4e-9, SecPerBarrier: 1e-6}
	p := cal.BSPParams(8)
	if p.P != 8 || math.Abs(p.G-4) > 1e-12 || math.Abs(p.L-1000) > 1e-9 {
		t.Fatalf("BSPParams = %+v", p)
	}
	if z := (Calibration{}).BSPParams(4); z.P != 4 || z.G != 0 || z.L != 0 {
		t.Fatalf("zero calibration params = %+v", z)
	}
}

func TestRelativeError(t *testing.T) {
	if RelativeError(110, 100) != 0.1 {
		t.Fatal("RelativeError")
	}
	if !math.IsNaN(RelativeError(1, 0)) {
		t.Fatal("zero measured must be NaN")
	}
}

func TestByID(t *testing.T) {
	e, ok := ByID("E1")
	if !ok || e.ID != "E1" {
		t.Fatal("E1 missing")
	}
	if _, ok := ByID("E99"); ok {
		t.Fatal("phantom experiment found")
	}
}

// TestExperimentRegistryComplete pins the suite's ids in order. E22
// (streaming pipeline vs one-shot composition) was retired with
// internal/pipeline; the id stays unused so the E23–E29 citations in
// the docs keep their meaning.
func TestExperimentRegistryComplete(t *testing.T) {
	var want []string
	for i := 1; i <= 29; i++ {
		if i != 22 {
			want = append(want, fmt.Sprintf("E%d", i))
		}
	}
	if len(Experiments) != len(want) {
		t.Fatalf("suite has %d experiments, want %d", len(Experiments), len(want))
	}
	refs := map[string]string{}
	for i, e := range Experiments {
		if e.ID != want[i] {
			t.Fatalf("Experiments[%d].ID = %q, want %q (ids run E1..E29 in order, E22 retired)", i, e.ID, want[i])
		}
		if e.Run == nil || e.Title == "" || e.Ref == "" {
			t.Fatalf("experiment %q incomplete", e.ID)
		}
		if prev, dup := refs[e.Ref]; dup {
			t.Fatalf("%s and %s both regenerate %q", prev, e.ID, e.Ref)
		}
		refs[e.Ref] = e.ID
	}
	if _, ok := ByID("E22"); ok {
		t.Fatal("E22 is retired; do not reuse the id")
	}
}

// TestAllExperimentsProduceTables smoke-runs every experiment at quick
// size: each must return a non-empty, renderable table.
func TestAllExperimentsProduceTables(t *testing.T) {
	cfg := quickCfg()
	for _, e := range Experiments {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			tb := e.Run(cfg)
			if tb == nil || tb.NumRows() == 0 {
				t.Fatalf("%s produced an empty table", e.ID)
			}
			out := tb.String()
			if !strings.Contains(out, "\n") {
				t.Fatalf("%s rendered nothing", e.ID)
			}
		})
	}
}

func TestSpinScalesWithUnits(t *testing.T) {
	t1 := Stopwatch(func() { spin(1 << 20) })
	t2 := Stopwatch(func() { spin(1 << 24) })
	if t2 <= t1 {
		t.Fatalf("spin not monotone: %v vs %v", t1, t2)
	}
}
