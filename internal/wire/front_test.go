package wire

import (
	"errors"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/kernel"
	"repro/internal/serve"
)

// frontUnderTest is one serve.Front implementer plus the three things
// the conformance rows need beyond the interface itself.
type frontUnderTest struct {
	name string
	// open builds the serving side from cfg. dial returns a handle on
	// it that may be used concurrently with other handles (the server
	// itself, or one more client connection), stats reads the serving
	// side's counters, and closeServer stops the serving side while
	// the handles stay up, which is what makes ErrClosed observable.
	open func(t *testing.T, cfg serve.Config) (dial func() serve.Front, stats func() serve.Stats, closeServer func())
}

var frontsUnderTest = []frontUnderTest{
	{"server", func(t *testing.T, cfg serve.Config) (func() serve.Front, func() serve.Stats, func()) {
		s := serve.New(cfg)
		t.Cleanup(s.Close)
		return func() serve.Front { return s }, s.Stats, s.Close
	}},
	{"sharded", func(t *testing.T, cfg serve.Config) (func() serve.Front, func() serve.Stats, func()) {
		g := serve.NewSharded(serve.ShardedConfig{Shards: 2, ShardProcs: 1, Config: cfg})
		var once sync.Once
		closeServer := func() { once.Do(g.Close) }
		t.Cleanup(closeServer)
		return func() serve.Front { return g }, func() serve.Stats { return g.Stats().Aggregate }, closeServer
	}},
	{"client", func(t *testing.T, cfg serve.Config) (func() serve.Front, func() serve.Stats, func()) {
		s := serve.New(cfg)
		t.Cleanup(s.Close)
		l, err := Listen("tcp", "127.0.0.1:0", s, Config{})
		if err != nil {
			t.Fatalf("Listen: %v", err)
		}
		t.Cleanup(func() { l.Close() })
		dial := func() serve.Front {
			_, cl := newWire1(t, l)
			return cl
		}
		return dial, s.Stats, s.Close
	}},
}

// TestFrontConformance runs one table against every serve.Front in the
// tree: the typed helpers and a delta append checked against
// Kernel.Serial + Check, both budget spellings, and each admission
// sentinel through errors.Is. A remote shard is "just another Front"
// exactly as far as this table passes on *Client.
func TestFrontConformance(t *testing.T) {
	const tenant = "conf"
	const n = 257
	// Each helper row runs the helper on a generated record and stores
	// what it returns where Check reads it.
	helpers := []struct {
		kernel string
		run    func(f serve.Front, a *kernel.Args) error
	}{
		{"sort", func(f serve.Front, a *kernel.Args) error { return serve.Sort(f, tenant, a.Xs) }},
		{"select", func(f serve.Front, a *kernel.Args) (err error) {
			a.Out, err = serve.Select(f, tenant, a.Xs, a.K)
			return err
		}},
		{"histogram", func(f serve.Front, a *kernel.Args) error {
			return serve.Histogram(f, tenant, a.Hist, a.Xs, a.Bucket)
		}},
		{"scan", func(f serve.Front, a *kernel.Args) error { return serve.Scan(f, tenant, a.Dst, a.Xs) }},
		{"sum", func(f serve.Front, a *kernel.Args) (err error) {
			a.Out, err = serve.Sum(f, tenant, a.Xs)
			return err
		}},
		{"bfs", func(f serve.Front, a *kernel.Args) (err error) {
			a.Dist, err = serve.BFS(f, tenant, a.G, a.Src)
			return err
		}},
	}
	sortK := kernel.MustLookup("sort")

	for _, fut := range frontsUnderTest {
		t.Run(fut.name, func(t *testing.T) {
			dial, _, closeServer := fut.open(t, serve.Config{})
			f := dial()

			for _, h := range helpers {
				t.Run("helper="+h.kernel, func(t *testing.T) {
					k := kernel.MustLookup(h.kernel)
					got, want := k.Gen(n, 7), k.Gen(n, 7)
					k.Serial(want)
					if err := h.run(f, got); err != nil {
						t.Fatalf("helper: %v", err)
					}
					if err := k.Check(got, want); err != nil {
						t.Fatalf("helper result differs from the serial oracle: %v", err)
					}
				})
			}

			t.Run("delta-append", func(t *testing.T) {
				a := sortK.Gen(128, 3)
				app := []int64{-7, 1000, 5}
				want := &kernel.Args{Xs: append(append([]int64(nil), a.Xs...), app...)}
				sortK.Serial(want)
				if err := f.CallBudget(tenant, sortK, a, 0); err != nil {
					t.Fatalf("base sort: %v", err)
				}
				if err := f.CallDeltaBudget(tenant, sortK, a, &kernel.Delta{Append: app}, 0); err != nil {
					t.Fatalf("delta: %v", err)
				}
				if len(a.Xs) != len(want.Xs) {
					t.Fatalf("delta reply has %d elements, want %d", len(a.Xs), len(want.Xs))
				}
				if err := sortK.Check(a, want); err != nil {
					t.Fatalf("delta result differs from the serial oracle: %v", err)
				}
				// A kernel without a delta adapter refuses instead of rerunning.
				sel := kernel.MustLookup("select")
				if err := f.CallDeltaBudget(tenant, sel, sel.Gen(16, 1), &kernel.Delta{Append: app}, 0); err == nil {
					t.Fatal("delta on an adapterless kernel returned nil error")
				}
			})

			t.Run("budgets", func(t *testing.T) {
				k := kernel.MustLookup("sum")
				for _, budget := range []time.Duration{0, time.Minute} {
					got, want := k.Gen(n, 11), k.Gen(n, 11)
					k.Serial(want)
					if err := f.CallBudget(tenant, k, got, budget); err != nil {
						t.Fatalf("budget %v: %v", budget, err)
					}
					if err := k.Check(got, want); err != nil {
						t.Fatalf("budget %v: %v", budget, err)
					}
				}
				// A budget no request can meet: refused at the door once the
				// service-time estimate is warm, expired on the queue before.
				err := f.CallBudget(tenant, sortK, sortK.Gen(n, 13), time.Nanosecond)
				if !errors.Is(err, serve.ErrDeadlineExceeded) {
					t.Fatalf("1ns budget: err = %v, want ErrDeadlineExceeded", err)
				}
			})

			t.Run("closed", func(t *testing.T) {
				closeServer()
				err := f.CallBudget(tenant, sortK, sortK.Gen(n, 17), 0)
				if !errors.Is(err, serve.ErrClosed) {
					t.Fatalf("after close: err = %v, want ErrClosed", err)
				}
			})
		})

		// Rejection needs its own serving side: a one-deep tenant queue
		// behind a dispatcher parked in the gate kernel.
		t.Run(fut.name+"/rejected", func(t *testing.T) {
			open := gateReset()
			defer open()
			dial, stats, _ := fut.open(t, serve.Config{MaxQueue: 1})
			parkedOn, queuedOn, f := dial(), dial(), dial()

			parked := make(chan error, 1)
			go func() { parked <- parkedOn.CallBudget(tenant, gateKernel, &kernel.Args{Xs: []int64{1}}, 0) }()
			waitFor(t, time.Second, func() bool { return stats().Batches >= 1 })
			queued := make(chan error, 1)
			go func() { queued <- queuedOn.CallBudget(tenant, sortK, sortK.Gen(64, 1), 0) }()
			waitFor(t, time.Second, func() bool { return stats().Accepted >= 2 })

			err := f.CallBudget(tenant, sortK, sortK.Gen(64, 2), 0)
			if !errors.Is(err, serve.ErrRejected) {
				t.Fatalf("full queue: err = %v, want ErrRejected", err)
			}
			open()
			if err := <-parked; err != nil {
				t.Fatalf("parked request: %v", err)
			}
			if err := <-queued; err != nil {
				t.Fatalf("queued request: %v", err)
			}
		})
	}
}

// TestClientCloseInterruptsStalledCall pins that Close is a bound on a
// call whose server has stopped replying: against a peer that accepts
// and never answers, Close returns and the pending call fails. Both
// waits time out on the test side, so a Close that queues behind the
// call mutex fails here instead of hanging the suite.
func TestClientCloseInterruptsStalledCall(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		if c, err := ln.Accept(); err == nil {
			accepted <- c
		}
	}()
	cl, err := Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	peer := <-accepted
	defer peer.Close() // unblocks the call even if Close never does

	k := kernel.MustLookup("sort")
	callErr := make(chan error, 1)
	go func() { callErr <- cl.CallBudget("t", k, k.Gen(64, 1), 0) }()
	// The whole request has arrived, so the call is now parked in its
	// response read with the call mutex held.
	var lenb [4]byte
	if _, err := io.ReadFull(peer, lenb[:]); err != nil {
		t.Fatalf("read request prefix: %v", err)
	}
	if _, err := io.CopyN(io.Discard, peer, int64(nativeOrder.Uint32(lenb[:]))); err != nil {
		t.Fatalf("read request body: %v", err)
	}

	closed := make(chan error, 1)
	go func() { closed <- cl.Close() }()
	select {
	case <-closed:
	case <-time.After(time.Second):
		t.Fatal("Close blocked behind the stalled call")
	}
	select {
	case err := <-callErr:
		if err == nil {
			t.Fatal("stalled call returned nil after Close")
		}
	case <-time.After(time.Second):
		t.Fatal("stalled call still blocked after Close")
	}
}
