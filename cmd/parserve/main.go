// Command parserve is the standalone network front door: a sharded
// server (one shard by default) behind a wire-protocol listener on a
// TCP or Unix socket, so remote clients get the same batched,
// admission-controlled, deadline-aware serving path an in-process
// caller does.
//
//	parserve                                  # TCP on 127.0.0.1:7070, one shard
//	parserve -addr :7070 -shards 4 -slo 10ms -cache on
//	parserve -unix /tmp/parserve.sock
//
// Requests are length-prefixed binary frames (see internal/wire):
// payloads decode in place into connection-owned scratch slabs, large
// responses stream back as chunk frames, and a frame's optional
// deadline budget is enforced by the server's admission ladder exactly
// as a local SLO would be. Drive it with `parbench -serve -wire
// host:port` or any repro.DialClient.
//
// SIGINT/SIGTERM shut down gracefully: the listener stops accepting,
// in-flight requests drain and their responses are written, then the
// server closes and the final stats print (printDrain).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/rescache"
	"repro/internal/serve"
	"repro/internal/wire"
)

func main() {
	var (
		addr   = flag.String("addr", "127.0.0.1:7070", "TCP listen address")
		unix   = flag.String("unix", "", "Unix socket path (overrides -addr)")
		shards = flag.Int("shards", 1,
			"executor shards the server runs on, with tenant-affinity routing and diffusive migration between them (1 = one shard, no balancer)")
		workers = flag.Int("workers", 4,
			"serving workers, split evenly across shards (at least one per shard)")
		slo = flag.Duration("slo", 0,
			"server-wide per-request deadline budget; frames carrying their own budget override it per request (0 = no server deadline)")
		cacheMode = flag.String("cache", "off",
			"'on' puts the generation-stamped result cache in front of the server")
		stream = flag.Int("stream", 0,
			"response bytes at which replies stream as chunk frames (0 = default 1MiB, negative = never)")
	)
	flag.Parse()

	procs, err := shardProcs(*shards, *workers)
	if err != nil {
		fatalf("%v", err)
	}
	if *slo < 0 {
		fatalf("bad -slo %v: want >= 0", *slo)
	}
	var cache *rescache.Cache
	switch *cacheMode {
	case "on":
		cache = rescache.New(rescache.Config{})
	case "off", "":
	default:
		fatalf("bad -cache %q: want on or off", *cacheMode)
	}

	srv := serve.NewSharded(serve.ShardedConfig{
		Shards:     *shards,
		ShardProcs: procs,
		Config:     serve.Config{Workers: procs, SLO: *slo, Cache: cache},
	})

	network, laddr := "tcp", *addr
	if *unix != "" {
		network, laddr = "unix", *unix
	}
	l, err := wire.Listen(network, laddr, srv, wire.Config{StreamCutoff: *stream})
	if err != nil {
		srv.Close()
		fatalf("listen: %v", err)
	}
	fmt.Printf("parserve: listening on %s %s (shards=%d workers=%d slo=%v cache=%s)\n",
		network, l.Addr(), *shards, *workers, *slo, *cacheMode)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	s := <-sig
	fmt.Printf("parserve: %v — draining\n", s)
	start := time.Now()
	l.Close()
	srv.Close()
	printDrain(os.Stdout, l.Stats(), srv.Stats())
	fmt.Printf("parserve: drained in %s\n", time.Since(start).Round(time.Millisecond))
}

// shardProcs is each shard's worker count: workers split evenly over
// shards. Fewer workers than shards is refused rather than floored to
// one worker per shard, which would run more workers than -workers
// says.
func shardProcs(shards, workers int) (int, error) {
	if shards < 1 {
		return 0, fmt.Errorf("bad -shards %d: want >= 1", shards)
	}
	if workers < shards {
		return 0, fmt.Errorf("bad -workers %d: want at least -shards (%d); every shard needs one", workers, shards)
	}
	return workers / shards, nil
}

// printDrain prints the final stats lines. The wire: and serve: lines
// are parsed by the repo's benchmark (bench/target.go), so their field
// names and order are a format, pinned by TestPrintDrainFormat.
func printDrain(w io.Writer, ws wire.Stats, sst serve.ShardedStats) {
	fmt.Fprintf(w, "wire: conns=%d requests=%d responses=%d chunks=%d errors=%d\n",
		ws.Conns, ws.Requests, ws.Responses, ws.Chunks, ws.Errors)
	st := sst.Aggregate
	fmt.Fprintf(w, "serve: accepted=%d completed=%d rejected=%d dlrej=%d expired=%d batches=%d\n",
		st.Accepted, st.Completed, st.Rejected, st.DeadlineRejected, st.Expired, st.Batches)
	fmt.Fprintf(w, "shards: migrations=%d migrated=%d\n", sst.Migrations, sst.Migrated)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "parserve: "+format+"\n", args...)
	os.Exit(1)
}
