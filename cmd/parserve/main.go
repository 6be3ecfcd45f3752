// Command parserve is the standalone network front door: a Server (or
// ShardedServer) behind a wire-protocol listener on a TCP or Unix
// socket, so remote clients get the same batched, admission-controlled,
// deadline-aware serving path an in-process caller does.
//
//	parserve                                  # TCP on 127.0.0.1:7070
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
// server closes and the final stats print.
package main

import (
	"flag"
	"fmt"
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
		shards = flag.Int("shards", 0,
			"shard the server into N executor shards with tenant-affinity routing and diffusive migration (0 = one unsharded server)")
		workers = flag.Int("workers", 4,
			"serving workers (split across shards when -shards > 0)")
		slo = flag.Duration("slo", 0,
			"server-wide per-request deadline budget; frames carrying their own budget override it per request (0 = no server deadline)")
		cacheMode = flag.String("cache", "off",
			"'on' puts the generation-stamped result cache in front of the server")
		stream = flag.Int("stream", 0,
			"response bytes at which replies stream as chunk frames (0 = default 1MiB, negative = never)")
	)
	flag.Parse()

	if *shards < 0 {
		fatalf("bad -shards %d: want >= 0", *shards)
	}
	if *workers < 1 {
		fatalf("bad -workers %d: want >= 1", *workers)
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

	scfg := serve.Config{Workers: *workers, SLO: *slo, Cache: cache}
	var backend serve.Front
	var closeBackend func()
	var stats func() serve.Stats
	var sharded *serve.Sharded
	if *shards > 0 {
		procs := *workers / *shards
		if procs < 1 {
			procs = 1
		}
		sc := scfg
		sc.Workers = procs
		sharded = serve.NewSharded(serve.ShardedConfig{
			Shards:     *shards,
			ShardProcs: procs,
			Config:     sc,
		})
		backend = sharded
		closeBackend = func() { sharded.Close() }
		stats = func() serve.Stats { return sharded.Stats().Aggregate }
	} else {
		srv := serve.New(scfg)
		backend = srv
		closeBackend = func() { srv.Close() }
		stats = srv.Stats
	}

	network, laddr := "tcp", *addr
	if *unix != "" {
		network, laddr = "unix", *unix
	}
	l, err := wire.Listen(network, laddr, backend, wire.Config{StreamCutoff: *stream})
	if err != nil {
		closeBackend()
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
	closeBackend()

	ws := l.Stats()
	fmt.Printf("wire: conns=%d requests=%d responses=%d chunks=%d errors=%d\n",
		ws.Conns, ws.Requests, ws.Responses, ws.Chunks, ws.Errors)
	st := stats()
	fmt.Printf("serve: accepted=%d completed=%d rejected=%d dlrej=%d expired=%d batches=%d\n",
		st.Accepted, st.Completed, st.Rejected, st.DeadlineRejected, st.Expired, st.Batches)
	if sharded != nil {
		sst := sharded.Stats()
		fmt.Printf("shards: migrations=%d migrated=%d\n", sst.Migrations, sst.Migrated)
	}
	fmt.Printf("parserve: drained in %s\n", time.Since(start).Round(time.Millisecond))
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "parserve: "+format+"\n", args...)
	os.Exit(1)
}
