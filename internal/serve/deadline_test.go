package serve

import (
	"errors"
	"sync"
	"testing"
	"time"
)

// deadlineGate returns a Histogram workload that parks inside the
// kernel until release is called — the white-box way to hold the
// dispatcher inside a batch while later submissions pile up on the
// queues. A test cleanup releases it too, so a test that fails while
// the gate is shut does not hang its server's Close; register that
// Close (t.Cleanup) before calling deadlineGate.
func deadlineGate(t *testing.T) (bucket func(int64) int, release func()) {
	gate := make(chan struct{})
	release = sync.OnceFunc(func() { close(gate) })
	t.Cleanup(release)
	return func(int64) int { <-gate; return 0 }, release
}

// waitFor polls cond every millisecond and fails the test naming what
// it waited for if cond does not hold within five seconds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("%s: not within 5s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestDeadlineDoorRejection pins the door rung: when the queue-depth-
// predicted wait already exceeds the SLO budget, the request is
// refused with ErrDeadlineExceeded before it is enqueued, and the
// refusal is counted on both the server and the tenant entry.
func TestDeadlineDoorRejection(t *testing.T) {
	s := newShard(t, Config{SLO: time.Millisecond})
	// Pretend the dispatcher has measured 10ms per request, freshly:
	// any admission now predicts (queued+1)*10ms > 1ms and must
	// bounce. Without the fresh stamp the door would (correctly)
	// distrust the estimate as stale — that path is pinned by
	// TestDeadlineStaleEstimateAdmits.
	s.svcNanos.Store(int64(10 * time.Millisecond))
	s.svcStamp.Store(int64(time.Since(serveEpoch)))

	err := Sort(s, "t", []int64{3, 1, 2})
	if !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("err = %v, want ErrDeadlineExceeded", err)
	}
	st := s.Stats()
	if st.DeadlineRejected != 1 || st.Accepted != 0 || st.Rejected != 0 {
		t.Fatalf("stats = %+v", st)
	}
	ts := s.TenantStats()
	if len(ts) != 1 || ts[0].DeadlineRejected != 1 || ts[0].Accepted != 0 {
		t.Fatalf("tenant stats = %+v", ts)
	}
}

// TestDeadlineColdDoorAdmits pins the cold-start choice: with no
// batch measured yet the wait predictor is 0 and the door admits —
// SLO servers must not reject their very first request.
func TestDeadlineColdDoorAdmits(t *testing.T) {
	s := newShard(t, Config{SLO: 50 * time.Millisecond})
	xs := []int64{3, 1, 2}
	if err := Sort(s, "t", xs); err != nil {
		t.Fatalf("cold submit: %v", err)
	}
	if xs[0] != 1 || xs[2] != 3 {
		t.Fatalf("sorted = %v", xs)
	}
	if per := s.svcNanos.Load(); per <= 0 {
		t.Fatalf("svcNanos not measured after a batch: %d", per)
	}
}

// TestDeadlineStaleEstimateAdmits pins the staleness fix: a server
// that has sat idle past svcStaleAfter must admit the next arrival
// like a cold start, even when the last traffic regime left a
// per-request estimate that would predict a deadline miss. Before the
// fix the EWMA never aged out and an idle server could bounce the
// first request of a new regime forever.
func TestDeadlineStaleEstimateAdmits(t *testing.T) {
	s := newShard(t, Config{SLO: time.Millisecond})
	// A fossil estimate: 10ms per request, measured (far) longer than
	// svcStaleAfter ago.
	s.svcNanos.Store(int64(10 * time.Millisecond))
	s.svcStamp.Store(int64(time.Since(serveEpoch)) - 2*int64(svcStaleAfter))

	xs := []int64{3, 1, 2}
	if err := Sort(s, "t", xs); err != nil {
		t.Fatalf("idle-server submit bounced on a stale estimate: %v", err)
	}
	if xs[0] != 1 || xs[2] != 3 {
		t.Fatalf("sorted = %v", xs)
	}
	if st := s.Stats(); st.DeadlineRejected != 0 || st.Accepted != 1 {
		t.Fatalf("stats = %+v, want 1 accepted / 0 deadline-rejected", st)
	}
}

// TestDeadlineStaleEstimateResets pins the dispatcher side of the
// fix: the first batch after an idle gap restarts the EWMA from its
// own measurement instead of averaging into the dead regime's value.
func TestDeadlineStaleEstimateResets(t *testing.T) {
	s := newShard(t, Config{SLO: time.Second})
	fossil := int64(time.Hour)
	s.svcNanos.Store(fossil)
	s.svcStamp.Store(int64(time.Since(serveEpoch)) - 2*int64(svcStaleAfter))

	if err := Sort(s, "t", []int64{3, 1, 2}); err != nil {
		t.Fatalf("submit: %v", err)
	}
	// A fold (alpha 1/4) would leave ~45 minutes; a reset leaves the
	// microseconds this batch actually took.
	if per := s.svcNanos.Load(); per <= 0 || per >= fossil/2 {
		t.Fatalf("svcNanos = %v after stale gap, want a reset to this batch's measurement", time.Duration(per))
	}
	if !s.svcFresh(time.Now()) {
		t.Fatal("svcStamp not refreshed by the batch")
	}
}

// TestDeadlineExpiredDroppedBeforeBatching pins the dispatcher rung:
// a request whose deadline passes while it waits behind a stalled
// batch is completed with ErrDeadlineExceeded at batch formation —
// counted as Expired, not Completed — without occupying a batch slot.
func TestDeadlineExpiredDroppedBeforeBatching(t *testing.T) {
	const slo = 20 * time.Millisecond
	s := NewSharded(ShardedConfig{Shards: 1, Config: Config{SLO: slo, Workers: 1}})
	t.Cleanup(s.Close)

	bucket, release := deadlineGate(t)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		hist := make([]int, 1)
		if err := Histogram(s, "blocker", hist, []int64{1}, bucket); err != nil {
			t.Errorf("blocker: %v", err)
		}
	}()
	// Wait until the blocker is inside execute() so the next submit
	// can only queue behind it.
	waitFor(t, "blocker batch started", func() bool { return s.Stats().Aggregate.Batches > 0 })

	var victimErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		victimErr = Sort(s, "victim", []int64{2, 1})
	}()
	// Let the victim's budget lapse while the dispatcher is stuck,
	// then release the blocker; the next batch formation must expire
	// the victim instead of running it.
	time.Sleep(3 * slo)
	release()
	wg.Wait()

	if !errors.Is(victimErr, ErrDeadlineExceeded) {
		t.Fatalf("victim err = %v, want ErrDeadlineExceeded", victimErr)
	}
	st := s.Stats().Aggregate
	if st.Expired != 1 {
		t.Fatalf("Expired = %d, want 1 (stats %+v)", st.Expired, st)
	}
	if st.Accepted != st.Completed+st.Expired {
		t.Fatalf("drain imbalance: accepted %d != completed %d + expired %d",
			st.Accepted, st.Completed, st.Expired)
	}
	for _, ts := range s.TenantStats() {
		if ts.Name == "victim" && (ts.Expired != 1 || ts.Completed != 0) {
			t.Fatalf("victim tenant stats = %+v", ts)
		}
	}
}

// TestMigrationKeepsDeadlineStamps pins the sharded contract: a
// request admitted under a home shard's SLO carries its deadline
// through migrateOut/migrateIn, and the thief shard enforces it at
// its own batch formation — even when the thief itself has no SLO
// configured — charging the expiry back to the admitting entry.
func TestMigrationKeepsDeadlineStamps(t *testing.T) {
	const slo = 20 * time.Millisecond
	home := newShard(t, Config{SLO: slo, Workers: 1})
	thief := newShard(t, Config{Workers: 1}) // no SLO of its own

	// Stall home's dispatcher so submissions after the blocker queue.
	bucket, release := deadlineGate(t)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		hist := make([]int, 1)
		_ = Histogram(home, "blocker", hist, []int64{1}, bucket)
	}()
	waitFor(t, "blocker batch started", func() bool { return home.Stats().Batches > 0 })

	const k = 3
	errs := make([]error, k)
	for i := 0; i < k; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = Sort(home, "mig", []int64{2, 1})
		}()
	}
	waitFor(t, "migration victims queued", func() bool { return home.queueDepth() >= k })

	// Steal the queued requests exactly as the diffusive balancer
	// would and verify the stamps survived the pop.
	buf := home.migrateOut(nil, k)
	if len(buf) != k {
		t.Fatalf("migrated %d, want %d", len(buf), k)
	}
	for i, r := range buf {
		if r.deadline.IsZero() {
			t.Fatalf("migrated request %d lost its deadline stamp", i)
		}
	}

	// Let the budget lapse, then hand them to the SLO-less thief: its
	// batch formation must honor the home stamps and expire all k.
	time.Sleep(3 * slo)
	thief.migrateIn(buf)
	release()
	wg.Wait()

	for i, err := range errs {
		if !errors.Is(err, ErrDeadlineExceeded) {
			t.Fatalf("migrated request %d err = %v, want ErrDeadlineExceeded", i, err)
		}
	}
	if exp := thief.Stats().Expired; exp != k {
		t.Fatalf("thief Expired = %d, want %d", exp, k)
	}
	// The expiry is charged to the admitting (home) tenant entry.
	for _, ts := range home.TenantStats() {
		if ts.Name == "mig" && ts.Expired != k {
			t.Fatalf("home tenant stats = %+v, want Expired=%d", ts, k)
		}
	}
	for _, ts := range thief.TenantStats() {
		if ts.Name == "mig" && ts.Expired != 0 {
			t.Fatalf("thief tenant entry charged the expiry: %+v", ts)
		}
	}
}

// TestDeadlineBatchPathZeroAllocs pins the acceptance bar: stamping
// and checking deadlines must not cost the serve batch path its
// 0 allocs/op steady state.
func TestDeadlineBatchPathZeroAllocs(t *testing.T) {
	s := NewSharded(ShardedConfig{Shards: 1, Config: Config{SLO: time.Second}})
	defer s.Close()
	xs := make([]int64, 4096)
	for i := range xs {
		xs[i] = int64((i * 2654435761) % 100003)
	}
	for i := 0; i < 64; i++ {
		if err := Sort(s, "t", xs); err != nil {
			t.Fatal(err)
		}
	}
	// A GC between runs can repopulate sync.Pools on the measured
	// iteration; retry before declaring a leak.
	var allocs float64
	for attempt := 0; attempt < 3; attempt++ {
		allocs = testing.AllocsPerRun(100, func() {
			if err := Sort(s, "t", xs); err != nil {
				t.Fatal(err)
			}
		})
		if allocs == 0 {
			break
		}
	}
	if allocs != 0 {
		t.Errorf("SLO batch path allocates %.2f allocs/op; want 0", allocs)
	}
}
