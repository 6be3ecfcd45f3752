package difftest

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/par"
	"repro/internal/scratch"
)

// sizes is the differential size axis: empty, singleton, small,
// odd/prime (exercises uneven block splits), and large enough that
// every configuration actually takes its parallel path.
func sizes() []int {
	large := 40_000
	if testing.Short() {
		large = 8_000
	}
	return []int{0, 1, 5, 63, 1021, large}
}

// procCounts is the worker-count axis.
func procCounts() []int {
	g := runtime.GOMAXPROCS(0)
	if g <= 2 {
		// Few-core runner: still exercise a proper fan-out.
		return []int{1, 2, 4}
	}
	return []int{1, 2, g}
}

// cfg is one cell of the configuration matrix.
type cfg struct {
	name string
	// rounds holds the options of each kernel call in the cell: one
	// for a fixed schedule, several for the adaptive cells, whose
	// calls must all produce identical results.
	rounds []par.Options
}

// switching returns the first n rounds of an adaptive cell, each under
// a different schedule, the way an online tuner moves between calls:
// serial, then a policy at a grain of 256 to 16 Ki with the serial
// cutoff off, and half the workers. Pooled scratch carries over from
// one round to the next, so a kernel whose result depended on the
// schedule or on what an earlier call left in its buffers would
// disagree with the oracle here.
func switching(p, n int, pool *scratch.Pool) []par.Options {
	half := max(1, p/2)
	all := []par.Options{
		{Procs: 1},
		{Procs: p, Policy: par.Static, Grain: 256, SerialCutoff: 1},
		{Procs: p, Policy: par.Guided, Grain: 16384, SerialCutoff: 1},
		{Procs: half, Policy: par.Dynamic, Grain: 1024, SerialCutoff: 1},
	}
	out := all[:n]
	for i := range out {
		out[i].Scratch = pool
	}
	return out
}

// fullMatrix is the complete configuration axis for the cheap array
// kernels: every policy × worker count × scratch mode, plus the
// adaptive cells (the schedule switches per round, so they replace
// the policy axis there).
func fullMatrix() []cfg {
	var out []cfg
	for _, p := range procCounts() {
		for _, sc := range []struct {
			name string
			pool *scratch.Pool
		}{{"scratch", nil}, {"noscratch", scratch.Off}} {
			for _, pol := range par.Policies {
				out = append(out, cfg{
					name: fmt.Sprintf("p%d/%s/%s", p, sc.name, pol),
					rounds: []par.Options{{Procs: p, Policy: pol, Grain: 64,
						SerialCutoff: 1, Scratch: sc.pool}},
				})
			}
			out = append(out, cfg{
				name:   fmt.Sprintf("p%d/%s/adaptive", p, sc.name),
				rounds: switching(p, 4, sc.pool),
			})
		}
	}
	return out
}

// smallMatrix is the trimmed axis for the expensive kernels (sorts,
// graphs, matrices): two policies stand in for the schedule axis, and
// the adaptive cells stay.
func smallMatrix() []cfg {
	var out []cfg
	for _, p := range procCounts() {
		for _, pol := range []par.Policy{par.Static, par.Dynamic} {
			out = append(out, cfg{
				name:   fmt.Sprintf("p%d/%s", p, pol),
				rounds: []par.Options{{Procs: p, Policy: pol, Grain: 64, SerialCutoff: 1}},
			})
		}
		out = append(out, cfg{
			name:   fmt.Sprintf("p%d/noscratch", p),
			rounds: []par.Options{{Procs: p, Scratch: scratch.Off}},
		})
		out = append(out, cfg{
			name:   fmt.Sprintf("p%d/adaptive", p),
			rounds: switching(p, 3, nil),
		})
	}
	return out
}

// forEach runs body once per (config, round), labeled for failure
// triage.
func forEach(t *testing.T, matrix []cfg, body func(t *testing.T, opts par.Options)) {
	t.Helper()
	for _, c := range matrix {
		t.Run(c.name, func(t *testing.T) {
			for _, opts := range c.rounds {
				body(t, opts)
			}
		})
	}
}

func eqInt64(t *testing.T, what string, got, want []int64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: len %d, want %d", what, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: [%d] = %d, want %d", what, i, got[i], want[i])
		}
	}
}

func eqInts(t *testing.T, what string, got, want []int) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: len %d, want %d", what, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: [%d] = %d, want %d", what, i, got[i], want[i])
		}
	}
}
