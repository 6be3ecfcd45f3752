package loadgen

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/perf"
	"repro/internal/rng"
)

// Schedule is a fixed open-loop arrival plan: Offsets[i] is the
// instant, relative to the run's start, at which request i is intended
// to enter the system. The plan is drawn in full before the run so the
// offered load is a property of the schedule alone — nothing the
// system under test does (stall, reject, deadlock) can slow the
// arrivals down, which is exactly the property a closed-loop client
// lacks. Offsets are non-decreasing.
type Schedule struct {
	Offsets []time.Duration
}

// Duration returns the intended span of the schedule (the last
// arrival's offset), or 0 for an empty schedule.
func (s Schedule) Duration() time.Duration {
	if len(s.Offsets) == 0 {
		return 0
	}
	return s.Offsets[len(s.Offsets)-1]
}

// OfferedRate returns the schedule's offered load in requests per
// second (0 for fewer than two arrivals).
func (s Schedule) OfferedRate() float64 {
	d := s.Duration()
	if d <= 0 || len(s.Offsets) < 2 {
		return 0
	}
	return float64(len(s.Offsets)-1) / d.Seconds()
}

// Constant returns a schedule of n arrivals at exactly rate requests
// per second: Offsets[i] = i/rate. It panics if rate <= 0 or n < 0.
func Constant(n int, rate float64) Schedule {
	if rate <= 0 {
		panic("loadgen: Constant rate <= 0")
	}
	if n < 0 {
		panic("loadgen: Constant n < 0")
	}
	offs := make([]time.Duration, n)
	for i := range offs {
		offs[i] = time.Duration(float64(i) / rate * float64(time.Second))
	}
	return Schedule{Offsets: offs}
}

// Poisson returns a schedule of n arrivals forming a Poisson process
// with mean rate requests per second: inter-arrival gaps are drawn
// i.i.d. exponential with mean 1/rate from a SplitMix64 stream seeded
// with seed, so the same seed reproduces the same burst pattern.
// Bursty arrivals are the harsher (and more realistic) open-loop
// workload: even at an offered rate the system can sustain on average,
// bursts queue — and the corrected percentiles see that queueing. It
// panics if rate <= 0 or n < 0.
func Poisson(n int, rate float64, seed uint64) Schedule {
	if rate <= 0 {
		panic("loadgen: Poisson rate <= 0")
	}
	if n < 0 {
		panic("loadgen: Poisson n < 0")
	}
	r := rng.New(seed)
	offs := make([]time.Duration, n)
	var t float64 // seconds
	for i := range offs {
		if i > 0 {
			t += r.ExpFloat64() / rate
		}
		offs[i] = time.Duration(t * float64(time.Second))
	}
	return Schedule{Offsets: offs}
}

// Sample records one request's lifecycle, all instants as offsets from
// the run's start. Intended is the schedule's arrival; Sent is when
// the generator actually fired the request (later than Intended only
// when the generator itself fell behind); Done is completion. Err is
// whatever the request function returned.
type Sample struct {
	Intended time.Duration
	Sent     time.Duration
	Done     time.Duration
	Err      error
}

// Corrected returns the coordinated-omission-corrected latency: time
// from the *intended* arrival to completion. Queueing delay that built
// up while the system stalled is charged to the system, exactly as it
// would be for a user whose request arrived on schedule.
func (s Sample) Corrected() time.Duration { return s.Done - s.Intended }

// Uncorrected returns the latency a closed-loop client would have
// recorded: time from the actual send to completion.
func (s Sample) Uncorrected() time.Duration { return s.Done - s.Sent }

// Result is one run's full record: every sample in request-index
// (for Run, schedule) order plus the wall-clock span from start to
// last completion.
type Result struct {
	Samples []Sample
	Wall    time.Duration
}

// Run fires the schedule open-loop against do: request i is launched
// on its own goroutine at Offsets[i] whether or not any earlier
// request has completed, and its completion (and error) is recorded.
// do must be safe for concurrent calls; under saturation the number of
// in-flight calls grows with the backlog — that concurrency *is* the
// offered load the schedule promises, so Run never bounds it. Run
// returns once every request has completed.
func Run(sched Schedule, do func(i int) error) Result {
	n := len(sched.Offsets)
	res := Result{Samples: make([]Sample, n)}
	var wg sync.WaitGroup
	wg.Add(n)
	start := time.Now()
	for i := 0; i < n; i++ {
		if d := sched.Offsets[i] - time.Since(start); d > 0 {
			time.Sleep(d)
		}
		sent := time.Since(start)
		go func(i int, sent time.Duration) {
			defer wg.Done()
			err := do(i)
			done := time.Since(start)
			res.Samples[i] = Sample{
				Intended: sched.Offsets[i],
				Sent:     sent,
				Done:     done,
				Err:      err,
			}
		}(i, sent)
	}
	wg.Wait()
	res.Wall = time.Since(start)
	return res
}

// Closed drives do closed-loop: clients goroutines each draw the next
// request index from one shared ticket counter, call do(client, i),
// wait for it to return, and draw again until all n indices have been
// handed out. In-flight calls never exceed clients, so a stalled system
// slows its own arrivals down — the feedback Run removes. There is no
// schedule to fall behind, so every Sample has Intended == Sent and
// Corrected() == Uncorrected(); Summarize with the zero Schedule
// reports OfferedRate 0. client is in [0, clients): do may index
// per-client state with it without locking. do must be safe for
// concurrent calls across clients. It panics if clients <= 0 or n < 0.
func Closed(clients, n int, do func(client, i int) error) Result {
	if clients <= 0 {
		panic("loadgen: Closed clients <= 0")
	}
	if n < 0 {
		panic("loadgen: Closed n < 0")
	}
	res := Result{Samples: make([]Sample, n)}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(clients)
	start := time.Now()
	for c := 0; c < clients; c++ {
		go func(c int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				sent := time.Since(start)
				err := do(c, i)
				res.Samples[i] = Sample{Intended: sent, Sent: sent, Done: time.Since(start), Err: err}
			}
		}(c)
	}
	wg.Wait()
	res.Wall = time.Since(start)
	return res
}

// Latencies extracts per-sample latencies in seconds — corrected
// (from intended arrival) or uncorrected (from actual send). Errored
// samples are included only when includeErrored is set: a rejected
// request has a door-turnaround latency, not a service latency, and
// mixing the two flatters the tail.
func (r *Result) Latencies(corrected, includeErrored bool) []float64 {
	out := make([]float64, 0, len(r.Samples))
	for _, s := range r.Samples {
		if s.Err != nil && !includeErrored {
			continue
		}
		if corrected {
			out = append(out, s.Corrected().Seconds())
		} else {
			out = append(out, s.Uncorrected().Seconds())
		}
	}
	return out
}

// OK returns the number of samples that completed without error.
func (r *Result) OK() int {
	n := 0
	for _, s := range r.Samples {
		if s.Err == nil {
			n++
		}
	}
	return n
}

// Failed returns the number of errored samples matching match (all
// errored samples when match is nil).
func (r *Result) Failed(match func(error) bool) int {
	n := 0
	for _, s := range r.Samples {
		if s.Err != nil && (match == nil || match(s.Err)) {
			n++
		}
	}
	return n
}

// Report is the side-by-side percentile summary of one open-loop run.
// The Corrected row is the honest one; Uncorrected is printed next to
// it so the size of the coordinated-omission gap is itself an
// observable (they agree when the system kept up, and the ratio
// between them is how much a closed-loop harness would have lied).
type Report struct {
	Sent, OK, Errors int
	// OfferedRate is the schedule's intended load; AchievedRate is
	// completed-without-error requests over the run's wall time.
	OfferedRate, AchievedRate float64
	// Percentiles over successful samples, in seconds.
	CorrectedP50, CorrectedP95, CorrectedP99       float64
	UncorrectedP50, UncorrectedP95, UncorrectedP99 float64
}

// Summarize reduces a run against its schedule to a Report.
func (r *Result) Summarize(sched Schedule) Report {
	corr := r.Latencies(true, false)
	unc := r.Latencies(false, false)
	rep := Report{
		Sent:        len(r.Samples),
		OK:          r.OK(),
		OfferedRate: sched.OfferedRate(),

		CorrectedP50:   perf.Percentile(corr, 50),
		CorrectedP95:   perf.Percentile(corr, 95),
		CorrectedP99:   perf.Percentile(corr, 99),
		UncorrectedP50: perf.Percentile(unc, 50),
		UncorrectedP95: perf.Percentile(unc, 95),
		UncorrectedP99: perf.Percentile(unc, 99),
	}
	rep.Errors = rep.Sent - rep.OK
	if r.Wall > 0 {
		rep.AchievedRate = float64(rep.OK) / r.Wall.Seconds()
	}
	return rep
}
