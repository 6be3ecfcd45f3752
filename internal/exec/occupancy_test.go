package exec

import (
	"sync"
	"testing"
	"time"
)

func TestOccupancyLifecycle(t *testing.T) {
	e := New(4)
	defer e.Close()

	if got := e.Occupancy(); got != 0 {
		t.Fatalf("unstarted pool occupancy = %v, want 0", got)
	}

	// Saturate: four tasks hold every worker until released.
	release := make(chan struct{})
	var running sync.WaitGroup
	running.Add(4)
	for i := 0; i < 4; i++ {
		e.Submit(func() {
			running.Done()
			<-release
		})
	}
	running.Wait()
	if got := e.Occupancy(); got < 1 {
		t.Errorf("saturated pool occupancy = %v, want >= 1", got)
	}

	// Queued-but-unstarted tasks are not load: the gauge must not
	// exceed saturation (stale fork/join helpers would otherwise poison
	// it on few-core machines).
	e.Submit(func() {})
	e.Submit(func() {})
	if got := e.Occupancy(); got != 1 {
		t.Errorf("backlogged pool occupancy = %v, want 1", got)
	}

	close(release)
	// Workers drain and park; the gauge must fall back to 0.
	deadline := time.Now().Add(5 * time.Second)
	for e.Occupancy() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("occupancy stuck at %v after drain", e.Occupancy())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestShardedOccupancyLifecycle pins the shard-granularity contract:
// each shard's gauge reflects only its own pool — an idle shard reads
// exactly 0 while its neighbor is saturated (the single process-wide
// gauge could never say which workload was the load) — and the
// aggregate view is the worker-weighted mean. After quiescence every
// gauge must read exactly 0 and stay there.
func TestShardedOccupancyLifecycle(t *testing.T) {
	g := NewSharded(2, 2)
	defer g.Close()

	if got := g.Occupancy(); got != 0 {
		t.Fatalf("unstarted sharded occupancy = %v, want 0", got)
	}

	// Saturate shard 0 only.
	release := make(chan struct{})
	var running sync.WaitGroup
	running.Add(2)
	for i := 0; i < 2; i++ {
		g.Shard(0).Submit(func() {
			running.Done()
			<-release
		})
	}
	running.Wait()

	if got := g.Shard(0).Occupancy(); got != 1 {
		t.Errorf("saturated shard occupancy = %v, want 1", got)
	}
	if got := g.Shard(1).Occupancy(); got != 0 {
		t.Errorf("idle shard occupancy = %v, want exactly 0 while neighbor is saturated", got)
	}
	if got := g.Occupancy(); got != 0.5 {
		t.Errorf("aggregate occupancy = %v, want 0.5", got)
	}

	close(release)
	// Drain: every gauge must fall back to exactly 0 once the workers
	// park, and must not wobble afterwards.
	deadline := time.Now().Add(5 * time.Second)
	for g.Occupancy() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("aggregate occupancy stuck at %v after drain", g.Occupancy())
		}
		time.Sleep(time.Millisecond)
	}
	for i := 0; i < 100; i++ {
		if got := g.Shard(0).Occupancy(); got != 0 {
			t.Fatalf("quiesced shard 0 occupancy = %v, want exactly 0", got)
		}
		if got := g.Shard(1).Occupancy(); got != 0 {
			t.Fatalf("quiesced shard 1 occupancy = %v, want exactly 0", got)
		}
		if got := g.Occupancy(); got != 0 {
			t.Fatalf("quiesced aggregate occupancy = %v, want exactly 0", got)
		}
	}
}

// TestOccupancyEWMALifecycle pins the smoothed gauge the diffusive
// balancer reads: it tracks saturation immediately on first
// observation, holds while the load persists, and reads exactly 0
// (not an asymptotic residue) once the pool has been parked for a few
// time constants.
func TestOccupancyEWMALifecycle(t *testing.T) {
	e := New(2)
	defer e.Close()

	if got := e.OccupancyEWMA(); got != 0 {
		t.Fatalf("unstarted pool EWMA = %v, want 0", got)
	}

	release := make(chan struct{})
	var running sync.WaitGroup
	running.Add(2)
	e.Submit(func() { running.Done(); <-release })
	e.Submit(func() { running.Done(); <-release })
	running.Wait()

	// The stamp was set by the pre-saturation read above, so this
	// fold mixes old 0 with current 1; within a few tau it must be
	// dominated by the saturated gauge.
	time.Sleep(20 * time.Millisecond)
	if got := e.OccupancyEWMA(); got < 0.9 {
		t.Errorf("saturated pool EWMA = %v, want >= 0.9", got)
	}

	close(release)
	deadline := time.Now().Add(5 * time.Second)
	for e.Occupancy() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("occupancy stuck at %v after drain", e.Occupancy())
		}
		time.Sleep(time.Millisecond)
	}
	// Quiescence floor: after many tau of parked workers the EWMA
	// must read exactly 0, so "EWMA == 0" is a usable idle predicate.
	time.Sleep(50 * time.Millisecond)
	if got := e.OccupancyEWMA(); got != 0 {
		t.Errorf("parked pool EWMA = %v, want exactly 0 after quiescence", got)
	}
}
