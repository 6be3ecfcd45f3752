package loadgen

import (
	"errors"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/perf"
)

func TestConstantSpacing(t *testing.T) {
	s := Constant(5, 1000) // 1ms apart
	if len(s.Offsets) != 5 {
		t.Fatalf("Len = %d", len(s.Offsets))
	}
	for i, off := range s.Offsets {
		want := time.Duration(i) * time.Millisecond
		if off != want {
			t.Fatalf("Offsets[%d] = %v, want %v", i, off, want)
		}
	}
	if got := s.OfferedRate(); math.Abs(got-1000) > 1e-6 {
		t.Fatalf("OfferedRate = %v", got)
	}
	if d := s.Duration(); d != 4*time.Millisecond {
		t.Fatalf("Duration = %v", d)
	}
}

func TestConstantEmptyAndPanics(t *testing.T) {
	if s := Constant(0, 100); len(s.Offsets) != 0 || s.Duration() != 0 || s.OfferedRate() != 0 {
		t.Fatalf("empty schedule = %+v", s)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Constant accepted rate 0")
		}
	}()
	Constant(1, 0)
}

func TestPoissonMeanAndMonotone(t *testing.T) {
	const n, rate = 4096, 500.0
	s := Poisson(n, rate, 7)
	if len(s.Offsets) != n || s.Offsets[0] != 0 {
		t.Fatalf("len=%d first=%v", len(s.Offsets), s.Offsets[0])
	}
	for i := 1; i < n; i++ {
		if s.Offsets[i] < s.Offsets[i-1] {
			t.Fatalf("offsets not monotone at %d", i)
		}
	}
	// Mean inter-arrival over 4095 exponential draws concentrates
	// tightly around 1/rate (stderr = mean/sqrt(n) ≈ 1.6%).
	mean := s.Duration().Seconds() / float64(n-1)
	if math.Abs(mean-1/rate)/(1/rate) > 0.15 {
		t.Fatalf("mean gap %v, want ~%v", mean, 1/rate)
	}
	// Same seed, same schedule; different seed, different bursts.
	if d := Poisson(n, rate, 7); d.Duration() != s.Duration() {
		t.Fatal("Poisson not reproducible for equal seeds")
	}
	if d := Poisson(n, rate, 8); d.Duration() == s.Duration() {
		t.Fatal("Poisson identical across seeds")
	}
}

func TestRunRecordsEverySample(t *testing.T) {
	sentinel := errors.New("boom")
	sched := Constant(40, 20000)
	res := Run(sched, func(i int) error {
		if i%4 == 3 {
			return sentinel
		}
		return nil
	})
	if len(res.Samples) != 40 {
		t.Fatalf("samples = %d", len(res.Samples))
	}
	if res.OK() != 30 || res.Failed(nil) != 10 {
		t.Fatalf("OK=%d Failed=%d", res.OK(), res.Failed(nil))
	}
	if got := res.Failed(func(err error) bool { return errors.Is(err, sentinel) }); got != 10 {
		t.Fatalf("Failed(sentinel) = %d", got)
	}
	for i, s := range res.Samples {
		if s.Intended != sched.Offsets[i] {
			t.Fatalf("sample %d intended %v, want %v", i, s.Intended, sched.Offsets[i])
		}
		if s.Sent < s.Intended || s.Done < s.Sent {
			t.Fatalf("sample %d out of order: %+v", i, s)
		}
		if s.Corrected() < s.Uncorrected() {
			t.Fatalf("sample %d corrected < uncorrected", i)
		}
	}
	rep := res.Summarize(sched)
	if rep.Sent != 40 || rep.OK != 30 || rep.Errors != 10 {
		t.Fatalf("report counts = %+v", rep)
	}
	if rep.CorrectedP50 < rep.UncorrectedP50 {
		t.Fatalf("corrected p50 %v < uncorrected %v", rep.CorrectedP50, rep.UncorrectedP50)
	}
}

// TestClosedHandsOutEveryIndexOnce pins the closed-loop driver's
// contract: each index in [0, n) reaches do exactly once, never more
// than clients calls overlap, the two clocks agree on every sample
// (there is no schedule to fall behind), and errored samples are
// recorded but kept out of the success percentiles.
func TestClosedHandsOutEveryIndexOnce(t *testing.T) {
	const clients, n = 4, 400
	sentinel := errors.New("boom")
	var seen [n]atomic.Int32
	var inflight, peak atomic.Int32
	res := Closed(clients, n, func(c, i int) error {
		if c < 0 || c >= clients {
			t.Errorf("client index %d outside [0, %d)", c, clients)
		}
		cur := inflight.Add(1)
		for {
			p := peak.Load()
			if cur <= p || peak.CompareAndSwap(p, cur) {
				break
			}
		}
		seen[i].Add(1)
		runtime.Gosched() // give the other clients a chance to overlap
		inflight.Add(-1)
		if i%4 == 3 {
			return sentinel
		}
		return nil
	})
	for i := range seen {
		if got := seen[i].Load(); got != 1 {
			t.Fatalf("index %d handed out %d times", i, got)
		}
	}
	if p := peak.Load(); p < 1 || p > clients {
		t.Fatalf("peak in-flight = %d with %d clients", p, clients)
	}
	if len(res.Samples) != n || res.OK() != n-n/4 || res.Failed(nil) != n/4 {
		t.Fatalf("samples=%d OK=%d Failed=%d", len(res.Samples), res.OK(), res.Failed(nil))
	}
	for i, s := range res.Samples {
		if s.Corrected() != s.Uncorrected() || s.Done < s.Sent || s.Done > res.Wall {
			t.Fatalf("sample %d clocks: %+v (wall %v)", i, s, res.Wall)
		}
		if (s.Err != nil) != (i%4 == 3) {
			t.Fatalf("sample %d err = %v", i, s.Err)
		}
	}
	if got := len(res.Latencies(false, false)); got != n-n/4 {
		t.Fatalf("Latencies(_, false) kept %d samples, want %d", got, n-n/4)
	}
	if got := len(res.Latencies(true, true)); got != n {
		t.Fatalf("Latencies(_, true) kept %d samples, want %d", got, n)
	}
	rep := res.Summarize(Schedule{})
	if rep.Sent != n || rep.Errors != n/4 || rep.OfferedRate != 0 || rep.AchievedRate <= 0 {
		t.Fatalf("report = %+v", rep)
	}
	if rep.CorrectedP99 != rep.UncorrectedP99 {
		t.Fatalf("closed-loop p99 differs across clocks: %+v", rep)
	}
}

// TestClosedDegenerateShapes: no requests at all, and more clients
// than requests, both return cleanly with every request accounted for.
func TestClosedDegenerateShapes(t *testing.T) {
	res := Closed(3, 0, func(c, i int) error {
		t.Errorf("do called (client %d, i %d) with n = 0", c, i)
		return nil
	})
	if rep := res.Summarize(Schedule{}); len(res.Samples) != 0 || rep.Sent != 0 || rep.AchievedRate != 0 {
		t.Fatalf("n=0: samples=%d report=%+v", len(res.Samples), rep)
	}
	var calls atomic.Int32
	res = Closed(8, 3, func(c, i int) error { calls.Add(1); return nil })
	if calls.Load() != 3 || res.OK() != 3 {
		t.Fatalf("clients > n: %d calls, OK=%d", calls.Load(), res.OK())
	}
}

func TestRunFastServiceKeepsUp(t *testing.T) {
	// A no-op service at a slack rate: corrected and uncorrected agree
	// to well under the inter-arrival gap, and nothing queues.
	sched := Constant(50, 2000) // 500µs apart
	res := Run(sched, func(int) error { return nil })
	rep := res.Summarize(sched)
	if rep.CorrectedP99 > 0.01 {
		t.Fatalf("unloaded corrected p99 = %v s", rep.CorrectedP99)
	}
	if gap := rep.CorrectedP99 - rep.UncorrectedP99; gap > 0.01 {
		t.Fatalf("unloaded correction gap = %v s", gap)
	}
}

// TestCoordinatedOmissionRegression is the harness-methodology pin
// behind this repo's tail-latency numbers: a closed-loop client
// measured against a saturated single-server queue reports a p99 near
// the bare service time, while an open-loop schedule offering the SAME
// load sees the queueing delay the closed-loop client was structurally
// unable to observe. If this test fails, the corrected-latency path
// has regressed to closed-loop semantics and every percentile the
// harness prints is suspect.
func TestCoordinatedOmissionRegression(t *testing.T) {
	// Service: one request at a time, 1ms each — a 1000 req/s server.
	const svc = time.Millisecond
	var mu sync.Mutex
	serve := func() {
		mu.Lock()
		time.Sleep(svc)
		mu.Unlock()
	}

	// Closed loop at full throttle: issues back-to-back, so it offers
	// exactly the server's capacity and each measurement sees only its
	// own service time — never the backlog its own stall created.
	const n = 150
	closed := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		serve()
		closed = append(closed, time.Since(t0).Seconds())
	}
	closedP99 := perf.Percentile(closed, 99)

	// Open loop at 2x capacity: the backlog grows linearly through the
	// run, and charging latency from the intended arrival exposes it.
	sched := Constant(n, 2000)
	res := Run(sched, func(int) error { serve(); return nil })
	rep := res.Summarize(sched)

	if rep.CorrectedP99 < rep.UncorrectedP99 {
		t.Fatalf("corrected p99 %v < uncorrected %v", rep.CorrectedP99, rep.UncorrectedP99)
	}
	// The honest number must dwarf the closed-loop one. The backlog at
	// the end of the run is ~n/2 requests ≈ 75ms of queue, so even
	// with heavy sleep jitter 3x (vs ~1ms closed) is a wide margin.
	if rep.CorrectedP99 < 3*closedP99 {
		t.Fatalf("corrected open-loop p99 %.4fs does not dominate closed-loop p99 %.4fs: coordinated omission is back",
			rep.CorrectedP99, closedP99)
	}
	// And the uncorrected open-loop column must not be the honest one:
	// it differs from corrected by the very delay closed loops omit.
	if rep.CorrectedP99 < 2*rep.UncorrectedP99 {
		t.Logf("note: correction gap modest (corr %.4fs, uncorr %.4fs)", rep.CorrectedP99, rep.UncorrectedP99)
	}
}

// TestNegativeCountPanics pins the documented contract: a negative n
// fails loudly at schedule construction, not as an opaque runtime
// error (or a silent misbehavior) later.
func TestNegativeCountPanics(t *testing.T) {
	for _, tc := range []struct {
		name string
		call func()
	}{
		{"Constant", func() { Constant(-1, 100) }},
		{"Poisson", func() { Poisson(-1, 100, 0) }},
		{"Closed", func() { Closed(1, -1, func(int, int) error { return nil }) }},
		{"ClosedClients", func() { Closed(-1, 1, func(int, int) error { return nil }) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s accepted a negative count", tc.name)
				}
			}()
			tc.call()
		})
	}
}

// TestSummarizeDegenerateSchedules pins the harness's edge cases: no
// arrivals, a single arrival, every arrival at the same instant, and
// a run where every request errors. None of these may divide by zero
// or leak NaN/Inf rates or percentiles into a report.
func TestSummarizeDegenerateSchedules(t *testing.T) {
	fail := errors.New("synthetic failure")
	for _, tc := range []struct {
		name    string
		sched   Schedule
		do      func(i int) error
		wantOK  int
		wantErr int
	}{
		{"empty", Constant(0, 100), func(int) error { return nil }, 0, 0},
		{"single", Constant(1, 100), func(int) error { return nil }, 1, 0},
		{"zero-duration", Schedule{Offsets: make([]time.Duration, 5)}, func(int) error { return nil }, 5, 0},
		{"all-errored", Constant(4, 10000), func(int) error { return fail }, 0, 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res := Run(tc.sched, tc.do)
			rep := res.Summarize(tc.sched)
			if rep.Sent != len(tc.sched.Offsets) || rep.OK != tc.wantOK || rep.Errors != tc.wantErr {
				t.Fatalf("report = %+v, want sent=%d ok=%d errors=%d",
					rep, len(tc.sched.Offsets), tc.wantOK, tc.wantErr)
			}
			for name, v := range map[string]float64{
				"OfferedRate":    rep.OfferedRate,
				"AchievedRate":   rep.AchievedRate,
				"CorrectedP50":   rep.CorrectedP50,
				"CorrectedP95":   rep.CorrectedP95,
				"CorrectedP99":   rep.CorrectedP99,
				"UncorrectedP50": rep.UncorrectedP50,
				"UncorrectedP95": rep.UncorrectedP95,
				"UncorrectedP99": rep.UncorrectedP99,
			} {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("%s = %v (report %+v)", name, v, rep)
				}
				if v < 0 {
					t.Fatalf("%s = %v is negative (report %+v)", name, v, rep)
				}
			}
			// Fewer than two arrivals (or a zero span) define no offered
			// rate; an all-errored run achieved nothing.
			if tc.sched.Duration() <= 0 && rep.OfferedRate != 0 {
				t.Fatalf("OfferedRate = %v for a zero-span schedule", rep.OfferedRate)
			}
			if tc.wantOK == 0 && rep.AchievedRate != 0 {
				t.Fatalf("AchievedRate = %v with zero successes", rep.AchievedRate)
			}
		})
	}
}
