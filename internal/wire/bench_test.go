package wire

import (
	"testing"
	"time"

	"repro/internal/exec"
	"repro/internal/kernel"
	"repro/internal/loadgen"
	"repro/internal/scratch"
	"repro/internal/serve"
)

// wireBenchRate is the offered open-loop load in requests/second —
// matched across the in-process and wire modes so their corrected
// tails are comparable (the acceptance bar is wire p99 within 2x of
// in-process at the same offered load).
const wireBenchRate = 1000.0

const wireBenchWorkers = 4

// BenchmarkTrafficServeWire is the front-door latency ladder: the
// same open-loop mixed traffic served in-process, over a loopback
// socket, and over a loopback socket with chunked response streaming
// forced on. ns/op tracks the schedule; the honest numbers are the
// corrected/uncorrected p99 metrics. The codec mode isolates the
// frame layer itself — encode+decode round trips with allocs/op
// visible, pinning the zero-copy claim in the published numbers.
func BenchmarkTrafficServeWire(b *testing.B) {
	b.Run("mode=inproc", func(b *testing.B) { benchWireOpenLoop(b, modeInproc) })
	b.Run("mode=wire", func(b *testing.B) { benchWireOpenLoop(b, modeWire) })
	b.Run("mode=wire-stream", func(b *testing.B) { benchWireOpenLoop(b, modeWireStream) })
	b.Run("mode=codec", benchWireCodec)
}

const (
	modeInproc = iota
	modeWire
	modeWireStream
)

func benchWireOpenLoop(b *testing.B, mode int) {
	const n = 2 << 10
	gen := kernel.MustLookup("sort").Gen(n, 42)
	base := gen.Xs
	e := exec.New(wireBenchWorkers)
	defer e.Close()
	s := serve.New(serve.Config{Executor: e, Scratch: scratch.New(), Workers: wireBenchWorkers,
		BatchWindow: 200 * time.Microsecond})
	defer s.Close()

	var l *Listener
	if mode != modeInproc {
		cfg := Config{}
		if mode == modeWireStream {
			// Force every sort reply through the chunk path.
			cfg.StreamCutoff = 1024
			cfg.StreamChunk = 8 << 10
		}
		var err error
		l, err = Listen("tcp", "127.0.0.1:0", s, cfg)
		if err != nil {
			b.Fatalf("Listen: %v", err)
		}
		defer l.Close()
	}

	sortK := kernel.MustLookup("sort")
	histK := kernel.MustLookup("histogram")
	// Open-loop arrivals overlap, so every in-flight request needs its
	// own payload buffers — and its own connection in the wire modes,
	// because one connection serves one request at a time. The freelist
	// is a channel, not a sync.Pool: a GC-emptied pool would drop warm
	// clients (leaking their connections) and force bursts of re-dials,
	// charging collector timing to the wire tail.
	type bufs struct {
		args kernel.Args
		hist []int
		cl   *Client
	}
	free := make(chan *bufs, 128)
	getBufs := func() *bufs {
		select {
		case bf := <-free:
			return bf
		default:
		}
		bf := &bufs{hist: make([]int, 1024)}
		bf.args.Xs = make([]int64, n)
		if mode != modeInproc {
			cl, err := Dial("tcp", l.Addr().String())
			if err != nil {
				// Runs on a loadgen goroutine, where b.Fatalf is illegal.
				panic(err)
			}
			bf.cl = cl
		}
		return bf
	}
	putBufs := func(bf *bufs) {
		select {
		case free <- bf:
		default:
			if bf.cl != nil {
				bf.cl.Close()
			}
		}
	}
	defer func() {
		close(free)
		for bf := range free {
			if bf.cl != nil {
				bf.cl.Close()
			}
		}
	}()

	sched := loadgen.Constant(b.N, wireBenchRate)
	b.ResetTimer()
	res := loadgen.Run(sched, func(i int) error {
		bf := getBufs()
		defer putBufs(bf)
		copy(bf.args.Xs, base)
		tenant := string(rune('a' + i%4))
		a := &bf.args
		a.Hist = nil
		a.Bucket = nil
		if i%2 != 0 {
			a.Hist = bf.hist
			a.Bucket = canonBucket1024
		}
		k := sortK
		if i%2 != 0 {
			k = histK
		}
		if mode == modeInproc {
			return s.CallBudget(tenant, k, a, 0)
		}
		return bf.cl.CallBudget(tenant, k, a, 0)
	})
	b.StopTimer()

	rep := res.Summarize(sched)
	b.ReportMetric(rep.CorrectedP99*1e9, "p99corr-ns")
	b.ReportMetric(rep.UncorrectedP99*1e9, "p99uncorr-ns")
	if fails := res.Failed(func(error) bool { return true }); fails > 0 {
		b.Fatalf("%d requests failed", fails)
	}
}

var canonBucket1024 = CanonicalBucket(1024)

// benchWireCodec measures the frame layer alone: one warm
// request-encode/decode plus response-encode/decode per op, with
// allocs/op reported — the number the zero-copy design is judged by.
func benchWireCodec(b *testing.B) {
	k := kernel.MustLookup("sort")
	a := k.Gen(2<<10, 42)
	dec := NewDecoder()
	var reqBuf, respBuf []byte
	var err error
	reqBuf, err = AppendRequest(reqBuf, 1, "tenant", k, a, nil, time.Millisecond)
	if err != nil {
		b.Fatal(err)
	}
	body := make([]byte, len(reqBuf))
	out := kernel.Args{Xs: make([]int64, len(a.Xs))}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		reqBuf, _ = AppendRequest(reqBuf[:0], uint64(i), "tenant", k, a, nil, time.Millisecond)
		n := copy(body, reqBuf[4:])
		req, err := dec.DecodeRequest(body[:n])
		if err != nil {
			b.Fatal(err)
		}
		respBuf = AppendResponse(respBuf[:0], req.ID, req.Kernel, &req.Args)
		n = copy(body, respBuf[4:])
		if _, err := DecodeResponseInto(body[:n], &out); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(len(reqBuf)))
}
