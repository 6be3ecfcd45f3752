package wire

import (
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/kernel"
	"repro/internal/par"
	"repro/internal/racecheck"
	"repro/internal/scratch"
	"repro/internal/serve"
)

// The gate kernel parks every request inside its batch slot until the
// test opens the gate — the socket-level equivalent of the serve
// suite's deadlineGate bucket, registered once for this test binary.
// It is what lets deadline and migration tests hold a dispatcher
// mid-batch deterministically from the far side of a socket.
var gate struct {
	mu sync.Mutex
	ch chan struct{}
}

// gateReset arms a fresh gate and returns the function that opens it.
func gateReset() func() {
	gate.mu.Lock()
	ch := make(chan struct{})
	gate.ch = ch
	gate.mu.Unlock()
	var once sync.Once
	return func() { once.Do(func() { close(ch) }) }
}

func gatePark() {
	gate.mu.Lock()
	ch := gate.ch
	gate.mu.Unlock()
	if ch != nil {
		<-ch
	}
}

var gateKernel = kernel.Register(kernel.Kernel{
	Name:     "wiregate",
	Title:    "test kernel that parks until the gate opens",
	Variants: []kernel.Variant{{Name: "park", Run: func(a *kernel.Args, _ par.Options) { gatePark() }}},
	Serial:   func(a *kernel.Args) { gatePark() },
	Gen:      func(n int, seed uint64) *kernel.Args { return &kernel.Args{Xs: []int64{int64(seed)}} },
	Check:    func(got, want *kernel.Args) error { return nil },
})

// newWire spins a Server (or uses the one given) behind a TCP
// listener and returns a connected client, with cleanup registered.
func newWire(t *testing.T, backend Backend, cfg Config) (*Listener, *Client) {
	t.Helper()
	l, err := Listen("tcp", "127.0.0.1:0", backend, cfg)
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	t.Cleanup(func() { l.Close() })
	cl, err := Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	t.Cleanup(func() { cl.Close() })
	return l, cl
}

// TestWireEndToEnd drives every servable kernel shape through a real
// socket and compares against a local run of the same record: the
// wire path must be semantically invisible.
func TestWireEndToEnd(t *testing.T) {
	s := serve.NewSharded(serve.ShardedConfig{Shards: 1})
	defer s.Close()
	_, cl := newWire(t, s, Config{})

	for _, name := range []string{"sort", "select", "histogram", "scan", "sum", "bfs", "topk", "cc", "gups"} {
		t.Run(name, func(t *testing.T) {
			k := kernel.MustLookup(name)
			local := k.Gen(301, 7)
			remote := k.Gen(301, 7)
			k.Run(local, parOptions())
			if err := cl.CallBudget("tenant-e2e", k, remote, 0); err != nil {
				t.Fatalf("wire call: %v", err)
			}
			if err := k.Check(remote, local); err != nil {
				t.Fatalf("wire result differs from local: %v", err)
			}
		})
	}
}

// TestWireDecodeErrorEchoesID pins the per-request error contract: a
// frame whose header decodes but whose body does not (here an
// unregistered kernel name) is answered with the request's own id, so
// the client reports the server's message rather than an id mismatch,
// and the connection stays usable.
func TestWireDecodeErrorEchoesID(t *testing.T) {
	s := serve.NewSharded(serve.ShardedConfig{Shards: 1})
	defer s.Close()
	_, cl := newWire(t, s, Config{})

	err := cl.CallBudget("tenant-bad", &kernel.Kernel{Name: "nope"}, &kernel.Args{Xs: []int64{3, 1, 2}}, 0)
	if err == nil || !strings.Contains(err.Error(), "unknown kernel") {
		t.Fatalf("unregistered kernel: err = %v, want one containing %q", err, "unknown kernel")
	}
	k := kernel.MustLookup("sort")
	a := &kernel.Args{Xs: []int64{3, 1, 2}}
	if err := cl.CallBudget("tenant-bad", k, a, 0); err != nil {
		t.Fatalf("call after a decode error on the same client: %v", err)
	}
	if a.Xs[0] != 1 || a.Xs[1] != 2 || a.Xs[2] != 3 {
		t.Fatalf("sorted = %v", a.Xs)
	}
}

// TestWireStreamedByteIdentical pins the chunked response path: the
// same request served by a streaming listener and a one-shot listener
// must decode to identical results, and the streaming listener must
// actually have streamed.
func TestWireStreamedByteIdentical(t *testing.T) {
	s := serve.NewSharded(serve.ShardedConfig{Shards: 1})
	defer s.Close()
	oneShot, clOne := newWire(t, s, Config{})
	streaming, clStream := newWire(t, s, Config{StreamCutoff: 1024, StreamChunk: 4096})

	k := kernel.MustLookup("sort")
	a1 := k.Gen(50_000, 21)
	a2 := k.Gen(50_000, 21)
	if err := clOne.CallBudget("t", k, a1, 0); err != nil {
		t.Fatalf("one-shot: %v", err)
	}
	if err := clStream.CallBudget("t", k, a2, 0); err != nil {
		t.Fatalf("streamed: %v", err)
	}
	if len(a1.Xs) != len(a2.Xs) {
		t.Fatalf("lengths differ: %d vs %d", len(a1.Xs), len(a2.Xs))
	}
	for i := range a1.Xs {
		if a1.Xs[i] != a2.Xs[i] {
			t.Fatalf("Xs[%d]: one-shot %d, streamed %d", i, a1.Xs[i], a2.Xs[i])
		}
	}
	// A listener counts a reply after writing it, chunks before
	// responses, so the client can hold its reply before either count
	// moves: wait for the responses, then read the chunk counts.
	waitFor(t, 5*time.Second, func() bool {
		return streaming.Stats().Responses == 1 && oneShot.Stats().Responses == 1
	})
	if st := streaming.Stats(); st.Chunks == 0 {
		t.Fatalf("streaming listener sent no chunks: %+v", st)
	}
	if st := oneShot.Stats(); st.Chunks != 0 {
		t.Fatalf("one-shot listener sent chunks: %+v", st)
	}
}

// TestWireDeadlineDoorRefusal pins the door rung end-to-end: warm the
// service-time EWMA with real traffic, then a wire-stamped budget too
// small for even one predicted service time is refused at the door —
// the client sees serve.ErrDeadlineExceeded through errors.Is, and
// the server counts a door refusal, not a queue expiry.
func TestWireDeadlineDoorRefusal(t *testing.T) {
	s := serve.NewSharded(serve.ShardedConfig{Shards: 1})
	defer s.Close()
	_, cl := newWire(t, s, Config{})

	k := kernel.MustLookup("sort")
	for i := 0; i < 5; i++ {
		a := k.Gen(4096, uint64(i))
		if err := cl.CallBudget("t", k, a, 0); err != nil {
			t.Fatalf("warm call %d: %v", i, err)
		}
	}
	a := k.Gen(4096, 99)
	err := cl.CallBudget("t", k, a, time.Nanosecond)
	if !errors.Is(err, serve.ErrDeadlineExceeded) {
		t.Fatalf("err = %v, want ErrDeadlineExceeded", err)
	}
	st := s.Stats().Aggregate
	if st.DeadlineRejected != 1 {
		t.Fatalf("DeadlineRejected = %d, want 1 (stats %+v)", st.DeadlineRejected, st)
	}
	if st.Expired != 0 {
		t.Fatalf("Expired = %d, want 0 — refusal must happen at the door", st.Expired)
	}
}

// TestWireBudgetlessInheritsSLO is the regression pin that frames
// without a budget inherit Config.SLO: under a 1ns server SLO a
// budget-less request expires, while the same request carrying its
// own generous wire budget overrides the SLO and completes.
func TestWireBudgetlessInheritsSLO(t *testing.T) {
	s := serve.NewSharded(serve.ShardedConfig{Shards: 1, Config: serve.Config{SLO: time.Nanosecond}})
	defer s.Close()
	_, cl := newWire(t, s, Config{})

	k := kernel.MustLookup("sort")
	a := k.Gen(64, 1)
	if err := cl.CallBudget("t", k, a, time.Minute); err != nil {
		t.Fatalf("budgeted call must override the 1ns SLO: %v", err)
	}
	err := cl.CallBudget("t", k, k.Gen(64, 2), 0)
	if !errors.Is(err, serve.ErrDeadlineExceeded) {
		t.Fatalf("budget-less err = %v, want ErrDeadlineExceeded (inherited SLO)", err)
	}
	if st := s.Stats().Aggregate; st.Expired == 0 && st.DeadlineRejected == 0 {
		t.Fatalf("no deadline enforcement recorded: %+v", st)
	}
}

// TestWireBudgetExpiresInQueue pins the middle rung over a socket: a
// budget-stamped request that sits queued behind a parked batch past
// its budget is dropped at the next batch formation.
func TestWireBudgetExpiresInQueue(t *testing.T) {
	open := gateReset()
	defer open()
	s := serve.NewSharded(serve.ShardedConfig{Shards: 1})
	defer s.Close()
	l, clGate := newWire(t, s, Config{})
	_, clB := newWire1(t, l)

	done := make(chan error, 1)
	go func() { done <- clGate.CallBudget("t", gateKernel, &kernel.Args{Xs: []int64{1}}, 0) }()
	waitFor(t, time.Second, func() bool { return s.Stats().Aggregate.Batches >= 1 })

	k := kernel.MustLookup("sort")
	errc := make(chan error, 1)
	go func() { errc <- clB.CallBudget("t", k, k.Gen(64, 5), 2*time.Millisecond) }()
	waitFor(t, time.Second, func() bool { return s.Stats().Aggregate.Accepted >= 2 })
	time.Sleep(10 * time.Millisecond) // let the 2ms budget lapse while parked
	open()
	if err := <-done; err != nil {
		t.Fatalf("gate request: %v", err)
	}
	err := <-errc
	if !errors.Is(err, serve.ErrDeadlineExceeded) {
		t.Fatalf("queued err = %v, want ErrDeadlineExceeded", err)
	}
	if st := s.Stats().Aggregate; st.Expired != 1 {
		t.Fatalf("Expired = %d, want 1 (stats %+v)", st.Expired, st)
	}
}

// newWire1 dials another client at an existing listener.
func newWire1(t *testing.T, l *Listener) (*Listener, *Client) {
	t.Helper()
	cl, err := Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	t.Cleanup(func() { cl.Close() })
	return l, cl
}

func waitFor(t *testing.T, d time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("condition not reached within %v", d)
		}
		time.Sleep(time.Millisecond)
	}
}

// hotTenantFor finds a tenant name homed on shard 0 of g.
func hotTenantFor(g *serve.Sharded) string {
	for i := 0; ; i++ {
		name := fmt.Sprintf("hot-%d", i)
		if g.HomeShard(name) == 0 {
			return name
		}
	}
}

// TestWireMigrationCarriesStamps mirrors the serve suite's
// TestMigrationKeepsDeadlineStamps over real sockets, with organic
// migration instead of white-box hooks: the home shard's dispatcher
// is parked inside a gate batch, budget-stamped wire requests pile up
// on its queue, and the diffusive balancer (hysteresis 1) walks them
// to the idle sibling — whose batch formation enforces the stamps the
// home shard admitted. The proof the stamps rode: clients receive
// ErrDeadlineExceeded while the home dispatcher is still parked, so
// only a thief shard can have expired them.
func TestWireMigrationCarriesStamps(t *testing.T) {
	open := gateReset()
	defer open()
	g := serve.NewSharded(serve.ShardedConfig{
		Shards:            2,
		ShardProcs:        1,
		MigrateHysteresis: 1,
	})
	defer g.Close()
	l, err := Listen("tcp", "127.0.0.1:0", g, Config{})
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	defer l.Close()
	tenant := hotTenantFor(g)

	clGate, err := Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer clGate.Close()
	done := make(chan error, 1)
	go func() { done <- clGate.CallBudget(tenant, gateKernel, &kernel.Args{Xs: []int64{1}}, 0) }()
	waitFor(t, time.Second, func() bool { return g.Stats().PerShard[0].Batches >= 1 })

	// Six concurrent budget-stamped victims: admitted cold (EWMA
	// unwarmed) with 1ns stamps, queued behind the parked batch. The
	// submit piggyback sees the deepening queue and pushes victims to
	// shard 1.
	const victims = 6
	k := kernel.MustLookup("sort")
	errc := make(chan error, victims)
	for i := 0; i < victims; i++ {
		go func(i int) {
			cl, err := Dial("tcp", l.Addr().String())
			if err != nil {
				errc <- err
				return
			}
			defer cl.Close()
			errc <- cl.CallBudget(tenant, k, k.Gen(64, uint64(i)), time.Nanosecond)
		}(i)
	}
	// At least one victim must be expired by the thief while the home
	// dispatcher is still parked.
	select {
	case err := <-errc:
		if !errors.Is(err, serve.ErrDeadlineExceeded) {
			t.Fatalf("victim err = %v, want ErrDeadlineExceeded", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("no victim expired while home shard parked; stats %+v", g.Stats())
	}
	st := g.Stats()
	if st.Migrated == 0 {
		t.Fatalf("no requests migrated; stats %+v", st)
	}
	open()
	if err := <-done; err != nil {
		t.Fatalf("gate request: %v", err)
	}
	for i := 1; i < victims; i++ {
		if err := <-errc; err != nil && !errors.Is(err, serve.ErrDeadlineExceeded) {
			t.Fatalf("victim err = %v", err)
		}
	}
	// Expiries are charged to the admitting tenant entry wherever
	// they happened, so the merged accounting still balances.
	st = g.Stats()
	if st.Aggregate.Accepted != st.Aggregate.Completed+st.Aggregate.Expired {
		t.Fatalf("accounting: accepted %d != completed %d + expired %d",
			st.Aggregate.Accepted, st.Aggregate.Completed, st.Aggregate.Expired)
	}
}

// TestWireRaceSuite is the socket-level race exercise: concurrent
// clients with mixed kernels, budgets and deltas against a 4-shard
// listener. Run under -race in CI. At drain, client-side outcomes and
// server-side accounting must balance exactly.
func TestWireRaceSuite(t *testing.T) {
	g := serve.NewSharded(serve.ShardedConfig{Shards: 4})
	defer g.Close()
	l, err := Listen("tcp", "127.0.0.1:0", g, Config{StreamCutoff: 32 << 10})
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	defer l.Close()

	const clients = 8
	const perClient = 40
	var ok, deadline, rejected atomic64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl, err := Dial("tcp", l.Addr().String())
			if err != nil {
				t.Errorf("client %d dial: %v", c, err)
				return
			}
			defer cl.Close()
			tenant := fmt.Sprintf("tenant-%d", c%3)
			names := []string{"sort", "sum", "histogram", "scan"}
			record := func(i int, err error) {
				switch {
				case err == nil:
					ok.add(1)
				case errors.Is(err, serve.ErrDeadlineExceeded):
					deadline.add(1)
				case errors.Is(err, serve.ErrRejected):
					rejected.add(1)
				default:
					t.Errorf("client %d req %d: %v", c, i, err)
				}
			}
			for i := 0; i < perClient; i++ {
				k := kernel.MustLookup(names[(c+i)%len(names)])
				a := k.Gen(512+64*(i%7), uint64(c*1000+i))
				switch {
				case i%11 == 5:
					record(i, cl.CallBudget(tenant, k, a, time.Nanosecond))
				case i%13 == 7 && k.Name == "sort":
					// Two wire requests, two outcomes.
					err := cl.CallBudget(tenant, k, a, 0)
					record(i, err)
					if err == nil {
						record(i, cl.CallDeltaBudget(tenant, k, a, &kernel.Delta{Append: []int64{int64(i), -int64(i)}}, 0))
					}
				default:
					record(i, cl.CallBudget(tenant, k, a, 0))
				}
			}
		}(c)
	}
	wg.Wait()
	st := g.Stats()
	if st.Aggregate.Accepted != st.Aggregate.Completed+st.Aggregate.Expired {
		t.Fatalf("accounting: accepted %d != completed %d + expired %d",
			st.Aggregate.Accepted, st.Aggregate.Completed, st.Aggregate.Expired)
	}
	refusals := st.Aggregate.Rejected + st.Aggregate.DeadlineRejected + st.Aggregate.Expired
	if got := deadline.load() + rejected.load(); got != refusals {
		t.Fatalf("client-side failures %d != server-side refusals %d (stats %+v)", got, refusals, st.Aggregate)
	}
	ls := l.Stats()
	if ls.InFlight != 0 {
		t.Fatalf("in-flight gauge %d after drain", ls.InFlight)
	}
	if ls.Requests != int64(ok.load())+int64(deadline.load())+int64(rejected.load()) {
		t.Fatalf("listener requests %d != client outcomes %d", ls.Requests, ok.load()+deadline.load()+rejected.load())
	}
}

type atomic64 struct {
	mu sync.Mutex
	v  int64
}

func (a *atomic64) add(d int64) { a.mu.Lock(); a.v += d; a.mu.Unlock() }
func (a *atomic64) load() int64 { a.mu.Lock(); defer a.mu.Unlock(); return a.v }

// TestWireAbruptDisconnect pins the leak contract: a client that dies
// mid-stream leaks neither goroutines nor scratch bytes — the reader
// notices the dead socket, returns its slabs, and the gauges settle
// back to their baselines.
func TestWireAbruptDisconnect(t *testing.T) {
	pool := scratch.New()
	s := serve.NewSharded(serve.ShardedConfig{Shards: 1, Config: serve.Config{Scratch: pool}})
	defer s.Close()
	l, err := Listen("tcp", "127.0.0.1:0", s, Config{Scratch: pool, StreamCutoff: 8 << 10, StreamChunk: 4 << 10})
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	defer l.Close()

	// One clean request first so the serving path's lazy structures
	// (pools, EWMA, tenant entries) exist before the baseline.
	cl, err := Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	k := kernel.MustLookup("sort")
	if err := cl.CallBudget("t", k, k.Gen(65_536, 1), 0); err != nil {
		t.Fatalf("priming call: %v", err)
	}
	cl.Close()
	waitFor(t, time.Second, func() bool { return l.Stats().ActiveConns == 0 })
	baselineGo := runtime.NumGoroutine()
	baselineBytes := pool.Stats().BytesLive

	for round := 0; round < 4; round++ {
		c, err := net.Dial("tcp", l.Addr().String())
		if err != nil {
			t.Fatalf("raw dial: %v", err)
		}
		frame, err := AppendRequest(nil, 1, "t", k, k.Gen(65_536, uint64(round)), nil, 0)
		if err != nil {
			t.Fatalf("encode: %v", err)
		}
		if _, err := c.Write(frame); err != nil {
			t.Fatalf("write: %v", err)
		}
		// Read one chunk frame of the streamed reply, then vanish.
		var lenb [4]byte
		if _, err := io.ReadFull(c, lenb[:]); err != nil {
			t.Fatalf("read prefix: %v", err)
		}
		n := int(nativeOrder.Uint32(lenb[:]))
		buf := make([]byte, n)
		if _, err := io.ReadFull(c, buf); err != nil {
			t.Fatalf("read body: %v", err)
		}
		c.Close()
	}
	waitFor(t, 2*time.Second, func() bool { return l.Stats().ActiveConns == 0 })
	waitFor(t, 2*time.Second, func() bool { return pool.Stats().BytesLive <= baselineBytes })
	// Goroutine counts need settling time for netpoller bookkeeping.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > baselineGo && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got > baselineGo {
		t.Fatalf("goroutines %d > baseline %d after disconnects", got, baselineGo)
	}
}

// TestWireCloseDrains pins Close semantics: a request in flight when
// Close is called still completes and its response still arrives;
// afterwards the port stops accepting.
func TestWireCloseDrains(t *testing.T) {
	open := gateReset()
	defer open()
	s := serve.NewSharded(serve.ShardedConfig{Shards: 1})
	defer s.Close()
	l, err := Listen("tcp", "127.0.0.1:0", s, Config{})
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	cl, err := Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer cl.Close()
	addr := l.Addr().String()

	done := make(chan error, 1)
	go func() { done <- cl.CallBudget("t", gateKernel, &kernel.Args{Xs: []int64{1}}, 0) }()
	waitFor(t, time.Second, func() bool { return s.Stats().Aggregate.Batches >= 1 })

	closed := make(chan struct{})
	go func() { l.Close(); close(closed) }()
	select {
	case <-closed:
		t.Fatalf("Close returned while a request was still in flight")
	case <-time.After(50 * time.Millisecond):
	}
	open()
	if err := <-done; err != nil {
		t.Fatalf("in-flight request failed across Close: %v", err)
	}
	<-closed
	if c, err := net.DialTimeout("tcp", addr, 200*time.Millisecond); err == nil {
		c.Close()
		t.Fatalf("listener still accepting after Close")
	}
}

// TestWireCloseSkipsBufferedFrames pins that no frame starts after
// Close, even one that needs no read: a client pipelines a parked
// request and two sorts in one write, so the sorts sit in the
// connection's buffer while the first is in flight. Close lets the
// parked request finish and reply, then hangs up without serving the
// sorts. (A large frame first sizes the buffer so the run fits in one
// read.)
func TestWireCloseSkipsBufferedFrames(t *testing.T) {
	open := gateReset()
	defer open()
	s := serve.NewSharded(serve.ShardedConfig{Shards: 1})
	defer s.Close()
	cc, sc := net.Pipe()
	defer cc.Close()
	l := Serve(newPipeListener(sc), s, Config{})
	defer l.Close()
	cc.SetDeadline(time.Now().Add(10 * time.Second))

	sortK := kernel.MustLookup("sort")
	frames, err := AppendRequest(nil, 1, "t", sortK, sortK.Gen(4096, 1), nil, 0)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	if _, err := cc.Write(frames); err != nil {
		t.Fatalf("write: %v", err)
	}
	readReply(t, cc, 1)

	frames, err = AppendRequest(frames[:0], 2, "t", gateKernel, gateKernel.Gen(1, 2), nil, 0)
	for id := uint64(3); id <= 4 && err == nil; id++ {
		frames, err = AppendRequest(frames, id, "t", sortK, sortK.Gen(64, id), nil, 0)
	}
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	if _, err := cc.Write(frames); err != nil { // a net.Pipe write returns once all of it is read
		t.Fatalf("write: %v", err)
	}
	waitFor(t, 5*time.Second, func() bool { return l.Stats().InFlight == 1 })

	closed := make(chan struct{})
	go func() { l.Close(); close(closed) }()
	waitFor(t, 5*time.Second, l.closing.Load)
	open()
	readReply(t, cc, 2)
	<-closed
	var b [1]byte
	if n, err := cc.Read(b[:]); err != io.EOF {
		t.Fatalf("after the in-flight reply: read %d bytes, err %v, want EOF", n, err)
	}
	if st := l.Stats(); st.Requests != 2 || st.Responses != 2 {
		t.Fatalf("after Close: %+v, want the two sorts left in the buffer unserved", st)
	}
}

// TestWireCloseBoundsStalledReply pins that Close returns when a client
// stops reading mid-reply: the reply write blocked on the full socket is
// bounded by drainGrace once Close begins. The client shrinks its
// receive buffer so a 1 Mi-element streamed reply cannot fit in what
// the loopback socket pair buffers.
func TestWireCloseBoundsStalledReply(t *testing.T) {
	s := serve.NewSharded(serve.ShardedConfig{Shards: 1})
	defer s.Close()
	l, err := Listen("tcp", "127.0.0.1:0", s, Config{})
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	defer l.Close()
	c, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatalf("raw dial: %v", err)
	}
	defer c.Close()
	if err := c.(*net.TCPConn).SetReadBuffer(4 << 10); err != nil {
		t.Fatalf("SetReadBuffer: %v", err)
	}
	k := kernel.MustLookup("sort")
	frame, err := AppendRequest(nil, 1, "t", k, k.Gen(1<<20, 3), nil, 0)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	if _, err := c.Write(frame); err != nil {
		t.Fatalf("write: %v", err)
	}
	// The backend call is over once the request is counted and nothing
	// is in flight; the reply write then blocks on the client that
	// never reads. The pause lets it get there, though Close must return
	// either way: a reply write that starts after Close is bounded too.
	waitFor(t, 10*time.Second, func() bool { st := l.Stats(); return st.Requests == 1 && st.InFlight == 0 })
	time.Sleep(50 * time.Millisecond)

	closed := make(chan struct{})
	go func() { l.Close(); close(closed) }()
	select {
	case <-closed:
	case <-time.After(drainGrace + 5*time.Second):
		t.Fatalf("Close did not return within %v of a client that stopped reading", drainGrace+5*time.Second)
	}
	if st := l.Stats(); st.Responses != 0 || st.ActiveConns != 0 {
		t.Fatalf("after Close: %+v, want the stalled reply unsent and no conn open", st)
	}
}

// TestWireRoundTripZeroAllocs pins the socket path end to end, server
// and client together (AllocsPerRun counts the whole process): a warm
// one-shot round trip allocates nothing — the listener decodes into a
// Request it keeps per connection and writes through a net.Buffers it
// keeps per connection — and a streamed one allocates no more than the
// same call made in-process (at serve defaults the 256 Ki sort
// takes the long route, which allocates inside the sort itself).
func TestWireRoundTripZeroAllocs(t *testing.T) {
	if racecheck.Enabled {
		t.Skip("the race detector allocates")
	}
	s := serve.NewSharded(serve.ShardedConfig{Shards: 1})
	defer s.Close()
	l, cl := newWire(t, s, Config{})
	k := kernel.MustLookup("sort")

	measure := func(f serve.Front, n, calls int) float64 {
		base := k.Gen(n, 5).Xs
		a := kernel.Args{Xs: make([]int64, n)}
		call := func() {
			for i := 0; i < calls; i++ {
				copy(a.Xs, base)
				if err := f.CallBudget("t", k, &a, 0); err != nil {
					t.Fatal(err)
				}
			}
		}
		for i := 0; i < 8; i++ {
			call()
		}
		// A GC between runs can repopulate sync.Pools on the measured
		// iteration; retry before declaring a leak.
		var allocs float64
		for attempt := 0; attempt < 3; attempt++ {
			if allocs = testing.AllocsPerRun(50, call); allocs == 0 {
				break
			}
		}
		return allocs
	}

	if allocs := measure(cl, 4<<10, 4); allocs != 0 {
		t.Errorf("one-shot 4 Ki sort over the wire: %.2f allocs per 4 calls, want 0", allocs)
	}
	if st := l.Stats(); st.Chunks != 0 {
		t.Fatalf("the one-shot row streamed: %+v", st)
	}
	local := measure(s, 256<<10, 1)
	if allocs := measure(cl, 256<<10, 1); allocs > local {
		t.Errorf("streamed 256 Ki sort over the wire: %.2f allocs per call, in-process %.2f", allocs, local)
	}
	if st := l.Stats(); st.Chunks == 0 {
		t.Fatalf("the streamed row never streamed: %+v", st)
	}
}

// countingConn counts Read calls on the connection it wraps.
type countingConn struct {
	net.Conn
	reads int
}

func (c *countingConn) Read(b []byte) (int, error) {
	c.reads++
	return c.Conn.Read(b)
}

// TestListenerReadsOncePerFrame pins the read path's mechanism: a frame
// the connection already holds whole is taken with one Read, prefix and
// body together, and frames sent together are taken together. On a
// net.Pipe a Read returns at most one Write, so the count is exact: the
// first frame costs two (a connection reads its first prefix alone, so
// one that never sends holds no buffer), each later frame one, and a
// run of three frames in one Write one in all.
func TestListenerReadsOncePerFrame(t *testing.T) {
	cc, sc := net.Pipe()
	defer cc.Close()
	conn := &countingConn{Conn: sc}
	l := Serve(newPipeListener(conn), sortOnly{}, Config{})
	defer l.Close()
	cc.SetDeadline(time.Now().Add(10 * time.Second))

	k := kernel.MustLookup("sort")
	request := func(buf []byte, id uint64, n int) []byte {
		buf, err := AppendRequest(buf, id, "t", k, k.Gen(n, id), nil, 0)
		if err != nil {
			t.Fatalf("encode: %v", err)
		}
		return buf
	}
	// The first frame is the largest, so the buffer it sizes has room
	// for the three-frame run.
	var frames []byte
	for i := uint64(1); i <= 4; i++ {
		frames = request(frames[:0], i, 4096>>(2*i))
		if _, err := cc.Write(frames); err != nil {
			t.Fatalf("write: %v", err)
		}
		readReply(t, cc, i)
	}
	frames = request(request(request(frames[:0], 5, 64), 6, 64), 7, 64)
	if _, err := cc.Write(frames); err != nil {
		t.Fatalf("write: %v", err)
	}
	for i := uint64(5); i <= 7; i++ {
		readReply(t, cc, i)
	}
	l.Close() // the serving goroutine is done with conn once Close returns
	// 2 + 3 for the first four frames, 1 for the run of three, and the
	// read Close's deadline fails.
	if conn.reads != 2+3+1+1 {
		t.Fatalf("%d reads for 7 frames, want %d", conn.reads, 2+3+1+1)
	}
}

// readReply reads one reply frame and checks it is a response to id.
func readReply(t *testing.T, c net.Conn, id uint64) []byte {
	t.Helper()
	var lenb [4]byte
	if _, err := io.ReadFull(c, lenb[:]); err != nil {
		t.Fatalf("reply %d: read prefix: %v", id, err)
	}
	frame := make([]byte, 4+nativeOrder.Uint32(lenb[:]))
	copy(frame, lenb[:])
	if _, err := io.ReadFull(c, frame[4:]); err != nil {
		t.Fatalf("reply %d: read body: %v", id, err)
	}
	h, err := DecodeHeader(frame[4:])
	if err != nil || h.ID != id || h.Type != frameResponse {
		t.Fatalf("reply %d: header %+v, err %v", id, h, err)
	}
	return frame
}
