package metatest

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/par"
	"repro/internal/rng"
	"repro/internal/scratch"
)

// sizes is the metamorphic size axis: singleton, small, odd/prime
// (uneven block splits), and large enough to take every parallel path.
// Empty inputs are covered where the relation is defined for them.
func sizes() []int {
	large := 30_000
	if testing.Short() {
		large = 6_000
	}
	return []int{1, 5, 63, 1021, large}
}

// procCounts is the worker-count axis.
func procCounts() []int {
	g := runtime.GOMAXPROCS(0)
	if g <= 2 {
		return []int{1, 2, 4}
	}
	return []int{1, 2, g}
}

// cfg is one cell of the configuration matrix.
type cfg struct {
	name   string
	rounds []par.Options // one per call; several for adaptive cells
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

// fullMatrix: every policy × worker count × scratch mode, plus the
// adaptive cells — for the cheap array kernels.
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
				rounds: switching(p, 3, sc.pool),
			})
		}
	}
	return out
}

// smallMatrix: trimmed axis for the expensive kernels (sorts, graphs).
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
			rounds: switching(p, 2, nil),
		})
	}
	return out
}

// forEach runs body once per (config, round), labeled for triage.
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

// permutation returns a deterministic pseudo-random permutation of
// [0, n) (Fisher–Yates).
func permutation(n int, seed uint64) []int {
	r := rng.New(seed)
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// permute returns xs reordered by the permutation: out[i] = xs[p[i]].
func permute(xs []int64, p []int) []int64 {
	out := make([]int64, len(xs))
	for i, j := range p {
		out[i] = xs[j]
	}
	return out
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
