package main

import (
	"math"
	"os/exec"
	"path/filepath"
	"regexp"
	"testing"
	"time"
)

// A hand-built request: the client waits 100, of which serve holds 80,
// of which a kernel runs 30 — and a second request that hit the cache,
// so its serve span has no child.
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{req: 2, kind: spanClient, start: 200, end: 240},
		{req: 1, kind: spanKernel, start: 30, end: 60},
		{req: 1, kind: spanClient, start: 0, end: 100},
		{req: 2, kind: spanServe, start: 210, end: 225},
		{req: 1, kind: spanServe, start: 10, end: 90},
	}
	self := selfTimes(spans)
	got := map[uint64]map[spanKind]int64{1: {}, 2: {}}
	for i, sp := range spans {
		got[sp.req][sp.kind] = self[i]
	}
	want := map[uint64]map[spanKind]int64{
		1: {spanClient: 20, spanServe: 50, spanKernel: 30},
		2: {spanClient: 25, spanServe: 15},
	}
	for req, kinds := range want {
		var sum int64
		for kind, w := range kinds {
			if got[req][kind] != w {
				t.Errorf("request %d %s: self time %d, want %d", req, spanNames[kind], got[req][kind], w)
			}
			sum += got[req][kind]
		}
		// The self times of a request add up to its client span.
		if total := map[uint64]int64{1: 100, 2: 40}[req]; sum != total {
			t.Errorf("request %d: self times sum to %d, want the client span %d", req, sum, total)
		}
	}
}

func TestPickTail(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 50}, {99, 50}, {100, 90}, {999, 90}, {1000, 99}, {9999, 99}, {10000, 99.9}, {100000, 99.99},
	} {
		if got := pickTail(c.n); got != c.want {
			t.Errorf("pickTail(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	sorted := make([]float64, 1000)
	for i := range sorted {
		sorted[i] = float64(i + 1)
	}
	if got := percentile(sorted, 50); got != 500 {
		t.Errorf("median of 1..1000 = %v, want 500", got)
	}
	if got := tailOrZero(sorted, 99); got != 990 {
		t.Errorf("p99 of 1..1000 = %v, want 990", got)
	}
	if got := tailOrZero(sorted, 99.9); got != 0 {
		t.Errorf("p99.9 of 1000 samples = %v, want 0: one sample lies beyond it", got)
	}
}

// Python: statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
// gives [3.5, 13.5, 31.0].
func TestQuartilesMatchPython(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if q1 != 3.5 || q2 != 13.5 || q3 != 31 {
		t.Errorf("quartiles = %v %v %v, want 3.5 13.5 31", q1, q2, q3)
	}
	if got, want := spread([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37}), 27.5/13.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %v, want %v", got, want)
	}
}

// The no-repeat workloads lean on this: over more than four million
// draws no (entry, rotation) pair comes twice and rotation 0, the
// warm-up's, never comes at all.
func TestEnumeratorNeverRepeats(t *testing.T) {
	const entries, rots = 4096, 1023
	for _, seed := range []uint64{1, 2, 12345} {
		en := newEnumerator(entries, rots, seed)
		seen := make([]bool, entries*(rots+1))
		for i := uint64(0); i < entries*rots; i++ {
			e, rot := en.at(i)
			if rot < 1 || rot > rots || e < 0 || e >= entries {
				t.Fatalf("seed %d draw %d: (%d, %d) out of range", seed, i, e, rot)
			}
			if seen[e*(rots+1)+rot] {
				t.Fatalf("seed %d draw %d: (%d, %d) repeats", seed, i, e, rot)
			}
			seen[e*(rots+1)+rot] = true
		}
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// BENCHMARK.json and the workload table name the same workloads, and
// every name is one the benchmark contract accepts.
func TestSpecNames(t *testing.T) {
	sp, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	used := map[string]bool{}
	check := func(name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("name %q is not of the accepted form", name)
		}
		if used[name] {
			t.Errorf("name %q is used twice", name)
		}
		used[name] = true
	}
	for _, w := range sp.Workloads {
		check(w.Name)
		if findWorkload(w.Name) == nil {
			t.Errorf("BENCHMARK.json workload %q is not implemented", w.Name)
		}
	}
	for _, w := range workloads {
		if !sp.lists(w.name) {
			t.Errorf("workload %q is not in BENCHMARK.json", w.name)
		}
	}
	for _, defs := range [][]metricSpec{sp.EndToEnd, sp.PerLayer} {
		for _, d := range defs {
			check(d.Name)
		}
	}
}

// Every workload runs, untraced and traced, with one-second windows:
// outputs verify, the conservation invariants hold, and each run
// measures exactly the metrics BENCHMARK.json lists (runOne checks
// both directions).
func TestQuickRun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload; skipped with -short")
	}
	sp, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	parserve := filepath.Join(dir, "parserve")
	if out, err := exec.Command("go", "build", "-o", parserve, "repro/cmd/parserve").CombinedOutput(); err != nil {
		t.Fatalf("build parserve: %v\n%s", err, out)
	}
	o := options{seed: 7, window: time.Second, parserve: parserve, outDir: filepath.Join(dir, "out")}
	for i := range workloads {
		w := &workloads[i]
		for _, traced := range []bool{false, true} {
			r := runOne(w, o, traced, sp.defs(traced))
			if r.err != nil {
				t.Errorf("%s traced=%v: %v", w.name, traced, r.err)
				continue
			}
			if r.attempted < 1 || r.failed != 0 {
				t.Errorf("%s traced=%v: attempted %d, failed %d", w.name, traced, r.attempted, r.failed)
			}
			if traced {
				sum := r.m["trace.wire_share"] + r.m["trace.serve_share"] + r.m["trace.kernel_share"] + r.m["trace.pipeline_share"]
				if math.Abs(sum-1) > 1e-9 {
					t.Errorf("%s: layer shares sum to %v, want 1", w.name, sum)
				}
			}
		}
	}
}
