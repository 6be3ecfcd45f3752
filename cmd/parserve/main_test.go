package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
	"syscall"
	"testing"

	"repro/internal/kernel"
	"repro/internal/serve"
	"repro/internal/wire"
)

// The formats bench/target.go parses the drain lines with (copied:
// bench/ is its own module).
const (
	benchWireFormat  = "wire: conns=%d requests=%d responses=%d chunks=%d errors=%d"
	benchServeFormat = "serve: accepted=%d completed=%d rejected=%d dlrej=%d expired=%d"
)

// drain is what the benchmark reads off the drain lines.
type drain struct {
	requests, responses, errors, accepted, completed, expired int64
}

// parseDrain reads out's wire: and serve: lines the way the benchmark
// does and fails the test unless both parse.
func parseDrain(t *testing.T, out string) drain {
	t.Helper()
	var d drain
	var skip int64
	var gotWire, gotServe bool
	sc := bufio.NewScanner(strings.NewReader(out))
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "wire:"):
			n, _ := fmt.Sscanf(line, benchWireFormat, &skip, &d.requests, &d.responses, &skip, &d.errors)
			gotWire = n == 5
		case strings.HasPrefix(line, "serve:"):
			n, _ := fmt.Sscanf(line, benchServeFormat, &d.accepted, &d.completed, &skip, &skip, &d.expired)
			gotServe = n == 5
		}
	}
	if !gotWire || !gotServe {
		t.Fatalf("benchmark parse: wire %v, serve %v in:\n%s", gotWire, gotServe, out)
	}
	return d
}

// TestPrintDrainFormat pins the drain lines byte for byte and parses
// them back with the benchmark's format strings, so renaming or
// reordering a field the benchmark parses fails here.
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
	if d := parseDrain(t, buf.String()); d != (drain{requests: 3, responses: 5, errors: 7, accepted: 11, completed: 12, expired: 15}) {
		t.Fatalf("benchmark parse read %+v", d)
	}
}

// TestRunServesOverSocket starts parserve with its default flags on an
// ephemeral loopback port, sends one sort through wire.Dial and checks
// it against the kernel's serial oracle, then stops the server and
// reads its drain lines back the way the benchmark does.
func TestRunServesOverSocket(t *testing.T) {
	pr, pw := io.Pipe()
	stop := make(chan os.Signal, 1)
	done := make(chan error, 1)
	go func() {
		err := run([]string{"-addr", "127.0.0.1:0"}, stop, pw)
		pw.Close()
		done <- err
	}()
	// On an early failure, stop the server and unblock its writes.
	t.Cleanup(func() {
		select {
		case stop <- syscall.SIGTERM:
		default:
		}
		pr.Close()
	})

	lines := bufio.NewScanner(pr)
	if !lines.Scan() {
		t.Fatalf("no output: %v", lines.Err())
	}
	// parserve: listening on tcp 127.0.0.1:PORT (shards=...)
	f := strings.Fields(lines.Text())
	if len(f) < 5 || f[1] != "listening" {
		t.Fatalf("first line %q, want the listening line", lines.Text())
	}
	cl, err := wire.Dial("tcp", f[4])
	if err != nil {
		t.Fatal(err)
	}
	k := kernel.MustLookup("sort")
	want := k.Gen(4096, 8)
	got := slices.Clone(want.Xs)
	k.Serial(want)
	if err := serve.Sort(cl, "t", got); err != nil {
		t.Fatalf("sort over the socket: %v", err)
	}
	if !slices.Equal(got, want.Xs) {
		t.Fatal("sort over the socket disagrees with the serial oracle")
	}
	cl.Close()

	stop <- syscall.SIGTERM
	var rest strings.Builder
	for lines.Scan() {
		rest.WriteString(lines.Text() + "\n")
	}
	if err := <-done; err != nil {
		t.Fatalf("run: %v", err)
	}
	if d := parseDrain(t, rest.String()); d != (drain{requests: 1, responses: 1, accepted: 1, completed: 1}) {
		t.Fatalf("drain read %+v, want one request accepted, completed and answered:\n%s", d, rest.String())
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
