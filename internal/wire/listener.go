package wire

import (
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/kernel"
	"repro/internal/scratch"
	"repro/internal/serve"
)

// The serve sentinels under local names, so the codec can map remote
// error codes without importing serve in every file that mentions
// them.
var (
	errRejected = serve.ErrRejected
	errDeadline = serve.ErrDeadlineExceeded
	errClosed   = serve.ErrClosed
)

// Backend is what the listener serves onto: serve.Front under the
// name this package's callers already use. The listener passes each
// frame's deadline budget straight through, so the admission ladder
// sees the remote client's SLO.
type Backend = serve.Front

// Config shapes a Listener. The zero value is ready: default frame
// bound, default streaming thresholds, the process-default scratch
// pool.
type Config struct {
	// MaxFrame bounds a single frame body in bytes. <= 0 means
	// DefaultMaxFrame. A peer announcing a larger frame is sent an
	// error and disconnected — the length prefix is the only thing
	// read on trust, so it is the one field with a hard ceiling.
	MaxFrame int
	// StreamCutoff is the response-payload size in bytes at or above
	// which the reply is streamed as chunk frames instead of one
	// materialized frame. 0 means DefaultStreamCutoff; negative
	// disables streaming.
	StreamCutoff int
	// StreamChunk is the payload size of one chunk frame. <= 0 means
	// DefaultStreamChunk.
	StreamChunk int
	// Scratch is the slab pool connection read/write buffers are
	// drawn from (and returned to on disconnect). nil means the
	// process-wide default pool.
	Scratch *scratch.Pool
}

const (
	// DefaultStreamCutoff is where responses switch to chunked
	// streaming, at the pipeline-cutoff scale. Replies are written
	// vectored from the Args either way, so streaming saves the server
	// neither a copy nor slab bytes; what it gives is frames of at most
	// StreamChunk payload on the wire.
	DefaultStreamCutoff = 1 << 20
	// DefaultStreamChunk is one chunk frame's payload.
	DefaultStreamChunk = 64 << 10

	// drainGrace bounds each reply write once Close has begun.
	drainGrace = 2 * time.Second
)

// withDefaults resolves every "means default" value once, at Serve, so
// the frame loop reads plain fields. A negative StreamCutoff still means
// "never stream". Idempotent.
func (c Config) withDefaults() Config {
	if c.MaxFrame <= 0 {
		c.MaxFrame = DefaultMaxFrame
	}
	if c.StreamCutoff == 0 {
		c.StreamCutoff = DefaultStreamCutoff
	}
	if c.StreamChunk <= 0 {
		c.StreamChunk = DefaultStreamChunk
	}
	if c.Scratch == nil {
		c.Scratch = scratch.Default()
	}
	return c
}

// Stats is a snapshot of a Listener's counters and gauges.
type Stats struct {
	// Conns counts connections ever accepted; ActiveConns is the
	// gauge of currently-open ones (a leak detector's anchor).
	Conns, ActiveConns int64
	// Requests counts decoded request frames; InFlight is the gauge
	// of requests currently inside the backend.
	Requests, InFlight int64
	// Responses, Chunks and Errors count frames written back.
	Responses, Chunks, Errors int64
}

// Listener serves wire frames from TCP or Unix connections onto a
// Backend: one reader goroutine per connection, synchronous
// read → decode-in-place → call → respond, with the connection's
// buffers drawn from the scratch pool and returned on disconnect.
type Listener struct {
	ln      net.Listener
	backend Backend
	cfg     Config

	mu      sync.Mutex
	conns   map[net.Conn]struct{}
	closing atomic.Bool // set under mu; read without it by reply
	wg      sync.WaitGroup

	conns_    atomic.Int64
	active    atomic.Int64
	requests  atomic.Int64
	inflight  atomic.Int64
	responses atomic.Int64
	chunks    atomic.Int64
	errs      atomic.Int64
}

// Listen starts a Listener on the given network/address ("tcp",
// "127.0.0.1:0" or "unix", "/tmp/parserve.sock") serving backend.
func Listen(network, addr string, backend Backend, cfg Config) (*Listener, error) {
	ln, err := net.Listen(network, addr)
	if err != nil {
		return nil, err
	}
	return Serve(ln, backend, cfg), nil
}

// Serve wraps an already-listening net.Listener. It takes ownership:
// closing the wire.Listener closes ln.
func Serve(ln net.Listener, backend Backend, cfg Config) *Listener {
	l := &Listener{ln: ln, backend: backend, cfg: cfg.withDefaults(), conns: make(map[net.Conn]struct{})}
	l.wg.Add(1)
	go l.acceptLoop()
	return l
}

// Addr returns the bound address (useful with ":0" listeners).
func (l *Listener) Addr() net.Addr { return l.ln.Addr() }

// Stats returns a snapshot of the listener's counters.
func (l *Listener) Stats() Stats {
	return Stats{
		Conns:       l.conns_.Load(),
		ActiveConns: l.active.Load(),
		Requests:    l.requests.Load(),
		InFlight:    l.inflight.Load(),
		Responses:   l.responses.Load(),
		Chunks:      l.chunks.Load(),
		Errors:      l.errs.Load(),
	}
}

// Close drains and shuts down: stop accepting, wake every blocked
// reader (in-flight requests finish and their responses are written
// first; no new frame starts, even one already read into a
// connection's buffer), wait for the readers to exit, then return. A
// reply write during the drain — one already blocked on a peer that
// stopped reading, or one started after Close — is bounded by
// drainGrace, so Close returns even when a client never reads its
// reply. Idempotent.
func (l *Listener) Close() error {
	l.mu.Lock()
	if l.closing.Load() {
		l.mu.Unlock()
		l.wg.Wait()
		return nil
	}
	l.closing.Store(true)
	conns := make([]net.Conn, 0, len(l.conns))
	for c := range l.conns {
		conns = append(conns, c)
	}
	l.mu.Unlock()
	err := l.ln.Close()
	for _, c := range conns {
		c.SetReadDeadline(time.Unix(0, 1))
		c.SetWriteDeadline(time.Now().Add(drainGrace))
	}
	l.wg.Wait()
	return err
}

func (l *Listener) acceptLoop() {
	defer l.wg.Done()
	for {
		c, err := l.ln.Accept()
		if err != nil {
			return
		}
		l.mu.Lock()
		if l.closing.Load() {
			l.mu.Unlock()
			c.Close()
			return
		}
		l.conns[c] = struct{}{}
		l.wg.Add(1)
		l.mu.Unlock()
		l.conns_.Add(1)
		l.active.Add(1)
		go l.serveConn(c)
	}
}

func (l *Listener) dropConn(c net.Conn) {
	c.Close()
	l.mu.Lock()
	delete(l.conns, c)
	l.mu.Unlock()
	l.active.Add(-1)
	l.wg.Done()
}

// fatalDecode reports whether a decode error means the peer speaks a
// different protocol (or endianness) and the connection should drop,
// as opposed to one malformed frame on an otherwise intact stream.
func fatalDecode(err error) bool {
	return errors.Is(err, ErrBadMagic) || errors.Is(err, ErrBadVersion) || errors.Is(err, ErrBadOrder)
}

func errorCode(err error) int {
	switch {
	case errors.Is(err, errRejected):
		return codeRejected
	case errors.Is(err, errDeadline):
		return codeDeadline
	case errors.Is(err, errClosed):
		return codeClosed
	}
	return codeOther
}

// conn is one connection's serving state, allocated once when it is
// accepted: everything the frame loop reuses lives here, so nothing
// in it is allocated per frame — the decoded Request included, whose
// Args the backend receives by pointer.
type conn struct {
	c   net.Conn
	dec *Decoder
	r   frameReader
	ws  slab // the frame writer's
	w   frameWriter
	req Request
}

// serveConn is one connection's frame loop: read a frame into the
// connection's slab (one read when the socket already holds it all),
// decode it in place, call the backend, write the reply with one
// vectored write — computed bytes from the write slab, payloads
// straight from the Args. Strictly serial per connection — that is
// what makes slab reuse safe with a zero-copy decoder: bytes read past
// the frame are moved over it only once its reply is written — so
// pipelining across requests comes from opening more connections, not
// from more goroutines per socket.
func (l *Listener) serveConn(c net.Conn) {
	defer l.dropConn(c)
	cs := &conn{c: c, dec: NewDecoder(), r: frameReader{s: slab{pool: l.cfg.Scratch}}, ws: slab{pool: l.cfg.Scratch}}
	defer func() {
		cs.r.s.release()
		cs.ws.release()
	}()
	for {
		body, err := cs.r.next(c, l.cfg.MaxFrame)
		if err != nil {
			if errors.Is(err, ErrFrameTooLarge) {
				// An insane length prefix means the stream cannot be
				// re-synchronized; report and hang up.
				l.reply(cs, 0, nil, nil, ErrFrameTooLarge)
			}
			return // EOF, abrupt disconnect, or Close's read deadline
		}
		if l.closing.Load() {
			// No frame starts after Close, not even one that was
			// already in the buffer and so needed no read.
			return
		}
		cs.req, err = cs.dec.DecodeRequest(body)
		req := &cs.req
		if err != nil {
			if !l.reply(cs, req.ID, nil, nil, err) || fatalDecode(err) {
				return
			}
			continue
		}
		l.requests.Add(1)
		l.inflight.Add(1)
		if req.IsDelta {
			err = l.backend.CallDeltaBudget(req.Tenant, req.Kernel, &req.Args, &req.Delta, req.Budget)
		} else {
			err = l.backend.CallBudget(req.Tenant, req.Kernel, &req.Args, req.Budget)
		}
		l.inflight.Add(-1)
		ok := l.reply(cs, req.ID, req.Kernel, &req.Args, err)
		*req = Request{} // drop the aliases into the slab and the kernel's outputs
		if !ok {
			return
		}
	}
}

// reply sends the one reply a frame gets, with one vectored write: an
// error frame when err is non-nil (serve sentinels travel as their
// codes), else a single response frame, or — when the payload crosses
// the stream cutoff — chunk frames walking the section bytes followed
// by the closing geometry frame. Chunked and one-shot replies decode
// to identical Args on the client. Only headers, scalars and error
// text go into the write slab; payloads are sent from the Args. During
// a drain every reply write is bounded by drainGrace. Returns false
// when the connection is dead.
func (l *Listener) reply(cs *conn, id uint64, k *kernel.Kernel, a *kernel.Args, err error) bool {
	w, sent, chunks := &cs.w, &l.responses, 0
	if err != nil {
		msg := err.Error()
		w.reset(cs.ws.grow(4+headerSize+len(msg), 0))
		w.errorFrame(id, errorCode(err), msg)
		sent = &l.errs
	} else if p := planResponse(k, a); l.cfg.StreamCutoff > 0 && len(p.raw) >= l.cfg.StreamCutoff {
		size := l.cfg.StreamChunk
		chunks = (len(p.raw) + size - 1) / size
		w.reset(cs.ws.grow(chunks*(4+headerSize)+4+streamEndBody, 0))
		for off := 0; off < len(p.raw); off += size {
			w.chunk(id, off, p.raw[off:min(off+size, len(p.raw))])
		}
		w.streamEnd(id, p, p.count, a)
	} else {
		w.reset(cs.ws.grow(4+responseBody(p)-len(p.raw), 0))
		w.response(id, p, a)
	}
	if l.closing.Load() {
		cs.c.SetWriteDeadline(time.Now().Add(drainGrace))
	}
	if w.writeTo(cs.c) != nil {
		return false
	}
	l.chunks.Add(int64(chunks))
	sent.Add(1)
	return true
}
