package core

import (
	"time"

	"repro/internal/gen"
	"repro/internal/kernel"
	"repro/internal/perf"
	"repro/internal/serve"
	"repro/internal/wire"
)

// Ninth batch of extension experiments: what the network front door
// costs — the same serving path reached in-process and over a socket.

func init() {
	Experiments = append(Experiments,
		Experiment{"E28", "Table 18", "Wire front door: in-process vs framed-socket vs chunk-streamed serving latency", E28WireDoor},
	)
}

// E28WireDoor regenerates Table 18: the same requests against the
// same server, submitted three ways — direct in-process calls, framed
// over a loopback TCP socket (one-shot responses), and framed with
// response streaming forced on (every reply crosses as chunk frames
// plus a geometry frame). The deltas are the protocol's own bill: the
// wire column adds two syscall-bounded frame copies and a scheduler
// handoff to the in-process floor, and the stream column adds the
// per-chunk write loop on top of that. Because the decoder aliases
// request payloads in place from connection-owned slabs, the gap
// stays flat in n for the kernels whose reply is small (sum) and
// grows only with the response bytes actually crossing for the rest —
// which is the zero-copy claim made measurable. Every column is an
// idle-path floor, so it takes the minimum over reps.
func E28WireDoor(cfg Config) *perf.Table {
	const workers = 4
	n := cfg.size(1<<16, 1<<12)
	reps := cfg.reps()
	t := perf.NewTable(
		"Table 18: wire front door — in-process vs framed socket vs chunk-streamed latency, W=4",
		"kernel", "n", "inproc(us)", "wire(us)", "wire-stream(us)", "wire-cost")

	srv := serve.New(serve.Config{
		Executor: cfg.Executor,
		Scratch:  cfg.Scratch,
		Workers:  workers,
	})
	defer srv.Close()
	// Two doors onto the one server: default thresholds (n-element
	// replies go back one-shot at these sizes), and streaming forced
	// down so every reply crosses chunked.
	l, err := wire.Listen("tcp", "127.0.0.1:0", srv, wire.Config{})
	if err != nil {
		return t
	}
	defer l.Close()
	ls, err := wire.Listen("tcp", "127.0.0.1:0", srv, wire.Config{StreamCutoff: 1024, StreamChunk: 16 << 10})
	if err != nil {
		return t
	}
	defer ls.Close()
	cl, err := wire.Dial("tcp", l.Addr().String())
	if err != nil {
		return t
	}
	defer cl.Close()
	cls, err := wire.Dial("tcp", ls.Addr().String())
	if err != nil {
		return t
	}
	defer cls.Close()

	const tenant = "t"
	const buckets = 256
	base := gen.Ints(n, gen.Uniform, cfg.seed())
	bucket := wire.CanonicalBucket(buckets)

	// Each case rebuilds its Args around a fresh copy of the input
	// outside the clock, so every rep does the same kernel work and
	// the cache-free request path is what gets timed.
	cases := []struct {
		name    string
		newArgs func(xs []int64) *kernel.Args
	}{
		{"sort", func(xs []int64) *kernel.Args { return &kernel.Args{Xs: xs} }},
		{"scan", func(xs []int64) *kernel.Args { return &kernel.Args{Xs: xs, Dst: make([]int64, len(xs))} }},
		{"sum", func(xs []int64) *kernel.Args { return &kernel.Args{Xs: xs} }},
		{"histogram", func(xs []int64) *kernel.Args {
			return &kernel.Args{Xs: xs, Hist: make([]int, buckets), Bucket: bucket}
		}},
	}

	timeFloor := func(f serve.Front, k *kernel.Kernel, newArgs func(xs []int64) *kernel.Args) time.Duration {
		best := time.Duration(0)
		xs := make([]int64, n)
		for rep := 0; rep < reps; rep++ {
			copy(xs, base)
			a := newArgs(xs)
			t0 := time.Now()
			err := f.CallBudget(tenant, k, a, 0)
			d := time.Since(t0)
			if err != nil {
				continue
			}
			if best == 0 || d < best {
				best = d
			}
		}
		return best
	}

	for _, c := range cases {
		k := kernel.MustLookup(c.name)
		inproc := timeFloor(srv, k, c.newArgs)
		wired := timeFloor(cl, k, c.newArgs)
		streamed := timeFloor(cls, k, c.newArgs)
		cost := 0.0
		if inproc > 0 {
			cost = float64(wired) / float64(inproc)
		}
		t.AddRowf(c.name, n,
			float64(inproc)/1e3, float64(wired)/1e3, float64(streamed)/1e3, cost)
	}
	return t
}
