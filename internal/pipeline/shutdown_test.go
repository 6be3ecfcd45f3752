package pipeline

import (
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/exec"
	"repro/internal/par"
	"repro/internal/scratch"
)

// These tests pin the pipeline's lifecycle contract: cancellation and
// sink errors drain every queue, return every scratch byte, and never
// deadlock a backpressured producer; independent pipelines share one
// executor safely. The CI race step runs them under -race.

// waitRun runs p.Run on a goroutine and fails the test if it does not
// return within the deadline — the anti-deadlock harness.
func waitRun(t *testing.T, p *Pipeline, d time.Duration) error {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- p.Run() }()
	select {
	case err := <-done:
		return err
	case <-time.After(d):
		t.Fatal("pipeline did not finish: deadlock?")
		return nil
	}
}

// TestConcurrentPipelinesOneExecutor drives several pipelines at once
// on one dedicated executor (the heavy-traffic shape) and checks every
// result; run it under -race to vet the shared runtime.
func TestConcurrentPipelinesOneExecutor(t *testing.T) {
	e := exec.New(4)
	defer e.Close()
	pool := scratch.New()
	const n = 20000
	xs := input(n)
	var wantSum int64
	for _, v := range xs {
		if v&1 == 0 {
			wantSum += v
		}
	}
	const workers = 6
	var wg sync.WaitGroup
	errs := make([]error, workers)
	sums := make([]int64, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cfg := Config{ChunkSize: 512 + 37*w, QueueDepth: 1 + w%3,
				Opts: par.Options{Procs: 2, SerialCutoff: 1, Executor: e, Scratch: pool}}
			errs[w] = New(cfg).FromSlice(xs).
				Filter(func(v int64) bool { return v&1 == 0 }).
				ToSum(&sums[w]).Run()
		}(w)
	}
	wg.Wait()
	for w := 0; w < workers; w++ {
		if errs[w] != nil {
			t.Fatalf("pipeline %d: %v", w, errs[w])
		}
		if sums[w] != wantSum {
			t.Errorf("pipeline %d: sum = %d, want %d", w, sums[w], wantSum)
		}
	}
	if live := pool.Stats().BytesLive; live != 0 {
		t.Errorf("scratch bytes live after concurrent runs = %d, want 0", live)
	}
}

// TestCloseMidStreamReleasesScratch closes a backpressured pipeline
// mid-stream (sink parked, every queue full, producer blocked on send)
// and requires Run to return ErrClosed promptly with zero scratch
// bytes on loan — queues drained, chunk buffers, the sort buffer and
// stage temporaries all returned.
func TestCloseMidStreamReleasesScratch(t *testing.T) {
	pool := scratch.New()
	started := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	p := New(Config{
		ChunkSize: 256, QueueDepth: 1,
		Opts: par.Options{Procs: 2, SerialCutoff: 1, Scratch: pool},
	}).
		FromSlice(input(1 << 20)). // far more than the queues can hold
		Map(func(v int64) int64 { return v + 1 }).
		Sort(). // holds a gather buffer that must also be released
		ToFunc(func(buf []int64) error {
			once.Do(func() { close(started) })
			<-release
			return nil
		})
	done := make(chan error, 1)
	go func() { done <- p.Run() }()
	<-started
	p.Close()
	close(release)
	select {
	case err := <-done:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("Run after Close = %v, want ErrClosed", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("Run did not return after Close: backpressured producer deadlocked")
	}
	if live := pool.Stats().BytesLive; live != 0 {
		t.Errorf("scratch bytes live after Close = %d, want 0", live)
	}
}

// TestCloseWithoutSinkProgress closes a pipeline whose sink never
// receives anything (the sort stage is still accumulating), exercising
// cancel while every stage is mid-stream.
func TestCloseWithoutSinkProgress(t *testing.T) {
	pool := scratch.New()
	p := New(Config{
		ChunkSize: 128, QueueDepth: 1,
		Opts: par.Options{Procs: 2, SerialCutoff: 1, Scratch: pool},
	}).
		FromFunc(1<<30, func(i int) int64 { return int64(i ^ 0x55) }). // effectively endless
		Sort().
		Discard()
	done := make(chan error, 1)
	go func() { done <- p.Run() }()
	time.Sleep(20 * time.Millisecond) // let the sort stage gather chunks
	p.Close()
	select {
	case err := <-done:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("Run = %v, want ErrClosed", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("Run did not return after Close")
	}
	if live := pool.Stats().BytesLive; live != 0 {
		t.Errorf("scratch bytes live after Close = %d, want 0 (sort buffer leaked?)", live)
	}
}

// TestSinkErrorCancelsAndDrains: a failing sink must cancel the whole
// pipeline, surface its error from Run, and leave no bytes on loan —
// with QueueDepth 1 the upstream stages are backpressured when the
// error fires.
func TestSinkErrorCancelsAndDrains(t *testing.T) {
	pool := scratch.New()
	boom := errors.New("sink boom")
	seen := 0
	p := New(Config{ChunkSize: 256, QueueDepth: 1,
		Opts: par.Options{Procs: 2, SerialCutoff: 1, Scratch: pool}}).
		FromSlice(input(1 << 19)).
		Map(func(v int64) int64 { return v * 3 }).
		Filter(func(v int64) bool { return v&3 != 0 }).
		ToFunc(func(buf []int64) error {
			seen++
			if seen == 3 {
				return boom
			}
			return nil
		})
	if err := waitRun(t, p, 30*time.Second); !errors.Is(err, boom) {
		t.Fatalf("Run = %v, want the sink error", err)
	}
	if live := pool.Stats().BytesLive; live != 0 {
		t.Errorf("scratch bytes live after sink error = %d, want 0", live)
	}
}

// TestCloseBeforeRun and repeated Close are safe.
func TestCloseIdempotent(t *testing.T) {
	pool := scratch.New()
	p := New(Config{Opts: par.Options{Scratch: pool}}).
		FromSlice(input(10000)).Discard()
	p.Close()
	p.Close()
	if err := waitRun(t, p, 30*time.Second); !errors.Is(err, ErrClosed) {
		t.Fatalf("Run after Close = %v, want ErrClosed", err)
	}
	p.Close() // after Run: still a no-op
	if live := pool.Stats().BytesLive; live != 0 {
		t.Errorf("scratch bytes live = %d, want 0", live)
	}
}

// TestBackpressureBoundsMemory streams far more data than the queues
// hold against a slow sink and samples the pool's live-byte gauge
// throughout: the pipeline's in-flight footprint must stay a small
// constant multiple of the chunk size, never O(stream).
func TestBackpressureBoundsMemory(t *testing.T) {
	pool := scratch.New()
	const cs = 1024 // 8 KiB chunks
	chunks := 512
	if testing.Short() {
		chunks = 128
	}
	cfg := Config{ChunkSize: cs, QueueDepth: 2,
		Opts: par.Options{Procs: 2, SerialCutoff: 1, Scratch: pool}}
	p := New(cfg).
		FromFunc(cs*chunks, func(i int) int64 { return int64(i) }).
		Map(func(v int64) int64 { return v + 1 }).
		ToFunc(func(buf []int64) error {
			time.Sleep(200 * time.Microsecond) // slow consumer
			return nil
		})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var maxLive int64
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			if l := pool.Stats().BytesLive; l > maxLive {
				maxLive = l
			}
			select {
			case <-stop:
				return
			case <-tick.C:
			}
		}
	}()
	if err := p.Run(); err != nil {
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()
	// Bound: the recycle list's worst-case population (3 stages) plus
	// slack for stage temporaries.
	bound := int64((3*(2+2) + 4 + 8)) * 8 * cs
	if maxLive > bound {
		t.Errorf("peak scratch bytes live = %d while streaming %d bytes, want <= %d (unbounded buffering?)",
			maxLive, 8*cs*chunks, bound)
	}
}
