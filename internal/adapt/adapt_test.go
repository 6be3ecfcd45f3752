package adapt

import (
	"fmt"
	"math"
	"sync"
	"testing"
)

// cost is the synthetic per-element time oracle used by the
// convergence tests: one candidate is an order of magnitude faster
// than the rest, so the controller must find it.
func rangeCost(d Decision, bestGrain, bestPolicy int) float64 {
	if !d.Serial && d.Grain == bestGrain && d.Policy == bestPolicy {
		return 1e-9
	}
	return 1e-8
}

func TestConvergesToBestRangeCandidate(t *testing.T) {
	ctl := New(Config{Seed: 7})
	site := NewSite("test.range", KindRange)
	const n, p = 1 << 14, 8
	for i := 0; i < 200; i++ {
		d, tok := ctl.Decide(site, n, p, 0)
		if tok.Valid() {
			ctl.Record(tok, rangeCost(d, 4096, policyDynamic)*float64(n), n)
		}
	}
	if !ctl.Converged(site, n) {
		t.Fatalf("not converged after 200 recorded calls")
	}
	d, tok := ctl.Decide(site, n, p, 0)
	if tok.Valid() {
		t.Errorf("converged decision still wants measurement")
	}
	if d.Serial || d.Grain != 4096 || d.Policy != policyDynamic {
		t.Errorf("converged to %+v, want grain=4096 policy=dynamic", d)
	}
	if d.Procs != p {
		t.Errorf("converged Procs = %d, want %d", d.Procs, p)
	}
}

func TestConvergesToSerialWhenSerialWins(t *testing.T) {
	ctl := New(Config{Seed: 3})
	site := NewSite("test.workers", KindWorkers)
	const n, p = 512, 4
	for i := 0; i < 200; i++ {
		_, tok := ctl.Decide(site, n, p, 0)
		if !tok.Valid() {
			continue
		}
		// Serial is candidate 0; make it the only fast one.
		secs := 1e-8 * float64(n)
		if tok.cand == 0 {
			secs = 1e-9 * float64(n)
		}
		ctl.Record(tok, secs, n)
	}
	d, _ := ctl.Decide(site, n, p, 0)
	if !d.Serial || d.Procs != 1 {
		t.Errorf("converged to %+v, want serial", d)
	}
}

func TestLoadDegradation(t *testing.T) {
	ctl := New(Config{})
	site := NewSite("test.load", KindRange)
	const n, p = 1 << 16, 8

	// Saturated pool: serial, no token, counted as degraded.
	d, tok := ctl.Decide(site, n, p, 1.0)
	if !d.Degraded || !d.Serial || tok.Valid() {
		t.Errorf("load=1.0: got %+v valid=%v, want degraded serial unmeasured", d, tok.Valid())
	}
	// Moderate overshoot: fewer workers, widest grain, static policy.
	d, tok = ctl.Decide(site, n, p, 0.85)
	if !d.Degraded || tok.Valid() {
		t.Fatalf("load=0.85: got %+v valid=%v, want degraded unmeasured", d, tok.Valid())
	}
	if !d.Serial {
		if d.Procs >= p {
			t.Errorf("load=0.85: Procs = %d, want < %d", d.Procs, p)
		}
		if d.Grain != rangeGrains[len(rangeGrains)-1] || d.Policy != policyStatic {
			t.Errorf("load=0.85: got grain=%d policy=%d, want widest grain, static", d.Grain, d.Policy)
		}
	}
	// Load drops: the site re-expands to normal (measured) decisions.
	_, tok = ctl.Decide(site, n, p, 0.1)
	if !tok.Valid() {
		t.Errorf("low load after degradation should resume measured decisions")
	}
	if got := ctl.Stats().Degraded; got != 2 {
		t.Errorf("Stats.Degraded = %d, want 2", got)
	}
}

func TestSizeClassesLearnIndependently(t *testing.T) {
	ctl := New(Config{})
	site := NewSite("test.classes", KindWorkers)
	ctl.Decide(site, 100, 4, 0)
	ctl.Decide(site, 200_000, 4, 0)
	ctl.Decide(site, 100, 4, 0) // same class as the first
	st := ctl.Stats()
	if st.Sites != 1 || st.Classes != 2 {
		t.Errorf("Stats = %+v, want 1 site, 2 classes", st)
	}
}

func TestSiteForPCIsStable(t *testing.T) {
	a := SiteForPC(0x1234)
	b := SiteForPC(0x1234)
	c := SiteForPC(0x5678)
	if a != b {
		t.Errorf("same pc produced distinct sites")
	}
	if a == c {
		t.Errorf("distinct pcs shared a site")
	}
	if a.kind != KindRange {
		t.Errorf("pc site kind = %v, want KindRange", a.kind)
	}
}

// TestWorkerLatticeDedupesSmallP pins the small-p collapse: at p=2
// every worker share clamps to 2 workers, so only serial and one
// parallel candidate should stay active (measuring three copies of the
// same configuration would waste the exploration budget).
func TestWorkerLatticeDedupesSmallP(t *testing.T) {
	ctl := New(Config{})
	site := NewSite("test.dedup", KindWorkers)
	cs := ctl.class(site, 1<<12, 2)
	if len(cs.active) != 2 || cs.active[0] != 0 {
		t.Fatalf("active candidates at p=2 = %v, want [0 1]", cs.active)
	}
	// At p=8 all shares are distinct (8, 4, 2 workers).
	cs = ctl.class(NewSite("test.dedup8", KindWorkers), 1<<12, 8)
	if len(cs.active) != 4 {
		t.Fatalf("active candidates at p=8 = %v, want all four", cs.active)
	}
	// Inactive duplicate slots must never win the argmin.
	for i, e := range ctl.class(site, 1<<12, 2).ewma {
		active := i == 0 || i == 1
		if active == math.IsInf(e, 1) {
			t.Fatalf("ewma[%d] = %v, active=%v", i, e, active)
		}
	}
}

// TestConcurrentSiteCreation hammers first-sight site registration
// from many goroutines: the cache's lock-free read path must never
// observe a slice element being written (run under -race).
func TestConcurrentSiteCreation(t *testing.T) {
	ctl := New(Config{})
	sites := make([]*Site, 16)
	for i := range sites {
		sites[i] = NewSite(fmt.Sprintf("test.concurrent-create.%d", i), KindRange)
	}
	var start, wg sync.WaitGroup
	start.Add(1)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			start.Wait()
			for i := 0; i < 200; i++ {
				s := sites[(g+i)%len(sites)]
				d, tok := ctl.Decide(s, 1<<(8+i%6), 4, 0)
				if tok.Valid() {
					ctl.Record(tok, rangeCost(d, 1024, policyStatic)*1024, 1024)
				}
			}
		}(g)
	}
	start.Done()
	wg.Wait()
	if st := ctl.Stats(); st.Sites != int64(len(sites)) {
		t.Fatalf("Sites = %d, want %d", st.Sites, len(sites))
	}
}

func TestConcurrentDecideRecord(t *testing.T) {
	ctl := New(Config{})
	site := NewSite("test.concurrent", KindRange)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			n := 1 << (10 + g%4)
			for i := 0; i < 500; i++ {
				d, tok := ctl.Decide(site, n, 8, 0)
				if tok.Valid() {
					ctl.Record(tok, rangeCost(d, 1024, policyStatic)*float64(n), n)
				}
			}
		}(g)
	}
	wg.Wait()
	st := ctl.Stats()
	if st.Decisions != 8*500 {
		t.Errorf("Decisions = %d, want %d", st.Decisions, 8*500)
	}
	if st.Classes != 4 {
		t.Errorf("Classes = %d, want 4", st.Classes)
	}
}

func TestPriorPrefersSerialForTinyInputs(t *testing.T) {
	// With the default prior, a 100-element loop should be seeded
	// serial: the barrier dwarfs the work.
	pr := defaultPrior()
	serial := pr.predict(KindWorkers, 0, 100, 8)
	full := pr.predict(KindWorkers, 1, 100, 8)
	if serial >= full {
		t.Errorf("prior: serial %.3g >= parallel %.3g for n=100", serial, full)
	}
	// And a 16M-element loop should be seeded parallel.
	serial = pr.predict(KindWorkers, 0, 1<<24, 8)
	full = pr.predict(KindWorkers, 1, 1<<24, 8)
	if full >= serial {
		t.Errorf("prior: parallel %.3g >= serial %.3g for n=1<<24", full, serial)
	}
}

func TestCandidateDecisionEdges(t *testing.T) {
	// p == 1 collapses every candidate to serial.
	for idx := 0; idx < latticeSize(KindRange); idx++ {
		if d := candidateDecision(KindRange, idx, 1000, 1); !d.Serial {
			t.Fatalf("candidate %d with p=1 not serial: %+v", idx, d)
		}
	}
	// Worker shares never drop below 2 workers on the parallel side.
	for idx := 1; idx < latticeSize(KindWorkers); idx++ {
		if d := candidateDecision(KindWorkers, idx, 1000, 2); d.Procs < 2 {
			t.Fatalf("candidate %d: procs %d < 2", idx, d.Procs)
		}
	}
}

func TestBestReflectsRecordedFeedback(t *testing.T) {
	ctl := New(Config{Seed: 11})
	site := NewSite("test.best", KindWorkers)
	const n, p = 1 << 13, 8
	if _, ok := ctl.Best(site, n, p); ok {
		t.Fatalf("Best ok before any Decide")
	}
	for i := 0; i < 100; i++ {
		_, tok := ctl.Decide(site, n, p, 0)
		if !tok.Valid() {
			continue
		}
		secs := 1e-8 * float64(n)
		if int(tok.cand) == 1 { // full parallelism candidate
			secs = 1e-9 * float64(n)
		}
		ctl.Record(tok, secs, n)
	}
	d, ok := ctl.Best(site, n, p)
	if !ok || d.Serial || d.Procs != p {
		t.Errorf("Best = %+v ok=%v, want full-parallelism candidate", d, ok)
	}
}
