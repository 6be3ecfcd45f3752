package perf

import "time"

// Runner executes timed experiments with warmup and repetitions. The
// zero value uses 1 warmup run and 3 measured repetitions.
type Runner struct {
	Warmup int
	Reps   int
}

func (r Runner) warmup() int {
	if r.Warmup > 0 {
		return r.Warmup
	}
	return 1
}

func (r Runner) reps() int {
	if r.Reps > 0 {
		return r.Reps
	}
	return 3
}

// Time measures fn: warmup runs are discarded, then Reps runs are timed.
// fn receives the repetition index (warmups get negative indices) so it
// can vary seeds if desired while keeping run 0 deterministic.
func (r Runner) Time(fn func(rep int)) Summary {
	for w := 0; w < r.warmup(); w++ {
		fn(-1 - w)
	}
	times := make([]float64, r.reps())
	for i := range times {
		start := time.Now()
		fn(i)
		times[i] = time.Since(start).Seconds()
	}
	return Summarize(times)
}
