package main

import (
	"bufio"
	"fmt"
	"strings"
	"testing"

	"repro/internal/serve"
	"repro/internal/wire"
)

// TestPrintDrainFormat pins the drain lines byte for byte and parses
// them back with the format strings bench/target.go reads them with
// (copied: bench/ is its own module), so renaming or reordering a field
// the benchmark parses fails here.
func TestPrintDrainFormat(t *testing.T) {
	ws := wire.Stats{Conns: 1, ActiveConns: 2, Requests: 3, InFlight: 4, Responses: 5, Chunks: 6, Errors: 7}
	sst := serve.ShardedStats{
		Shards:     2,
		Aggregate:  serve.Stats{Accepted: 11, Completed: 12, Rejected: 13, DeadlineRejected: 14, Expired: 15, Batches: 16},
		Migrations: 17,
		Migrated:   18,
	}
	var buf strings.Builder
	printDrain(&buf, ws, sst)
	const golden = "wire: conns=1 requests=3 responses=5 chunks=6 errors=7\n" +
		"serve: accepted=11 completed=12 rejected=13 dlrej=14 expired=15 batches=16\n" +
		"shards: migrations=17 migrated=18\n"
	if got := buf.String(); got != golden {
		t.Fatalf("drain lines:\n%s\nwant:\n%s", got, golden)
	}

	var skip, requests, responses, errors, accepted, completed, expired int64
	var gotWire, gotServe bool
	sc := bufio.NewScanner(strings.NewReader(buf.String()))
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "wire:"):
			n, _ := fmt.Sscanf(line, "wire: conns=%d requests=%d responses=%d chunks=%d errors=%d",
				&skip, &requests, &responses, &skip, &errors)
			gotWire = n == 5
		case strings.HasPrefix(line, "serve:"):
			n, _ := fmt.Sscanf(line, "serve: accepted=%d completed=%d rejected=%d dlrej=%d expired=%d",
				&accepted, &completed, &skip, &skip, &expired)
			gotServe = n == 5
		}
	}
	if !gotWire || !gotServe {
		t.Fatalf("benchmark parse: wire %v, serve %v", gotWire, gotServe)
	}
	if requests != 3 || responses != 5 || errors != 7 || accepted != 11 || completed != 12 || expired != 15 {
		t.Fatalf("benchmark parse read requests=%d responses=%d errors=%d accepted=%d completed=%d expired=%d",
			requests, responses, errors, accepted, completed, expired)
	}
}

// TestShardProcsNeedsAWorkerPerShard pins the -shards/-workers
// contract: workers split evenly over shards, and fewer workers than
// shards is a flag error rather than one worker per shard floored in
// behind the startup line's back.
func TestShardProcsNeedsAWorkerPerShard(t *testing.T) {
	for _, c := range []struct{ shards, workers, want int }{
		{1, 4, 4}, {2, 4, 2}, {2, 5, 2}, {4, 4, 1},
	} {
		if got, err := shardProcs(c.shards, c.workers); err != nil || got != c.want {
			t.Errorf("shardProcs(%d, %d) = %d, %v; want %d", c.shards, c.workers, got, err, c.want)
		}
	}
	for _, c := range []struct {
		shards, workers int
		flag            string
	}{
		{0, 4, "-shards"}, {-1, 4, "-shards"}, {4, 2, "-workers"}, {1, 0, "-workers"},
	} {
		if _, err := shardProcs(c.shards, c.workers); err == nil || !strings.Contains(err.Error(), c.flag) {
			t.Errorf("shardProcs(%d, %d) err = %v, want one naming %s", c.shards, c.workers, err, c.flag)
		}
	}
}
