package wire

import (
	"errors"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

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
	// streaming: past the pipeline-cutoff scale, materializing the
	// reply next to the request doubles the slab footprint for no
	// latency win.
	DefaultStreamCutoff = 1 << 20
	// DefaultStreamChunk is one chunk frame's payload.
	DefaultStreamChunk = 64 << 10
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
	closing bool
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
// first — only the read side is deadlined), wait for the readers to
// exit, then return. Idempotent.
func (l *Listener) Close() error {
	l.mu.Lock()
	if l.closing {
		l.mu.Unlock()
		l.wg.Wait()
		return nil
	}
	l.closing = true
	conns := make([]net.Conn, 0, len(l.conns))
	for c := range l.conns {
		conns = append(conns, c)
	}
	l.mu.Unlock()
	err := l.ln.Close()
	for _, c := range conns {
		c.SetReadDeadline(time.Unix(0, 1))
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
		if l.closing {
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

// slabFor returns a byte slice with capacity at least need, reusing
// cur when it is big enough and otherwise swapping the slab for a
// larger class. The returned slice is at full slab capacity.
func slabFor(pool *scratch.Pool, cur []byte, h *scratch.Handle, need int) []byte {
	if cap(cur) >= need {
		return cur[:cap(cur)]
	}
	if cur != nil {
		scratch.Put(*h)
	}
	b, nh := scratch.Get[byte](pool, need)
	*h = nh
	return b[:cap(b)]
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

// serveConn is one connection's reader loop: length prefix, body into
// the connection's slab, decode in place, call the backend, write the
// reply from the connection's write slab. Strictly serial per
// connection — that is what makes slab reuse safe with a zero-copy
// decoder — so pipelining across requests comes from opening more
// connections, not from more goroutines per socket.
func (l *Listener) serveConn(c net.Conn) {
	defer l.dropConn(c)
	dec := NewDecoder()
	var (
		rbuf, wbuf []byte
		rh, wh     scratch.Handle
		lenb       [4]byte
	)
	defer func() {
		if rbuf != nil {
			scratch.Put(rh)
		}
		if wbuf != nil {
			scratch.Put(wh)
		}
	}()
	for {
		if _, err := io.ReadFull(c, lenb[:]); err != nil {
			return // EOF, abrupt disconnect, or Close's read deadline
		}
		n := int(nativeOrder.Uint32(lenb[:]))
		if n < headerSize || n > l.cfg.MaxFrame {
			// An insane length prefix means the stream cannot be
			// re-synchronized; report and hang up.
			l.reply(c, &wbuf, &wh, 0, nil, nil, ErrFrameTooLarge)
			return
		}
		rbuf = slabFor(l.cfg.Scratch, rbuf, &rh, n)
		body := rbuf[:n]
		if _, err := io.ReadFull(c, body); err != nil {
			return
		}
		req, err := dec.DecodeRequest(body)
		if err != nil {
			if !l.reply(c, &wbuf, &wh, req.ID, nil, nil, err) || fatalDecode(err) {
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
		if !l.reply(c, &wbuf, &wh, req.ID, req.Kernel, &req.Args, err) {
			return
		}
	}
}

// planBytes returns the raw bytes of the planned response section.
func planBytes(p respPlan, a *kernel.Args) []byte {
	switch p.tag {
	case secXs:
		return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(a.Xs))), 8*len(a.Xs))
	case secDst:
		return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(a.Dst))), 8*len(a.Dst))
	case secHist:
		if strconv64 {
			return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(a.Hist))), 8*len(a.Hist))
		}
		return nil
	case secDist:
		return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(a.Dist))), 4*len(a.Dist))
	}
	return nil
}

// reply sends the one reply a frame gets, from the connection's write
// slab: an error frame when err is non-nil (serve sentinels travel as
// their codes), else a single response frame, or — when the payload
// crosses the stream cutoff — chunk frames walking the section bytes
// followed by the closing geometry frame. Chunked and one-shot replies
// decode to identical Args on the client. Whatever the kind, its last
// frame is encoded into out and written and counted at one site.
// Returns false when the connection is dead.
func (l *Listener) reply(c net.Conn, wbuf *[]byte, wh *scratch.Handle, id uint64, k *kernel.Kernel, a *kernel.Args, err error) bool {
	pool, sent := l.cfg.Scratch, &l.responses
	var out []byte
	if err != nil {
		msg := err.Error()
		*wbuf = slabFor(pool, *wbuf, wh, 4+headerSize+len(msg))
		out, sent = AppendError((*wbuf)[:0], id, errorCode(err), msg), &l.errs
	} else {
		p := planResponse(k, a)
		if raw := planBytes(p, a); l.cfg.StreamCutoff > 0 && len(raw) >= l.cfg.StreamCutoff {
			cs := l.cfg.StreamChunk
			*wbuf = slabFor(pool, *wbuf, wh, 4+headerSize+cs)
			for off := 0; off < len(raw); off += cs {
				end := min(off+cs, len(raw))
				if _, werr := c.Write(AppendChunk((*wbuf)[:0], id, off, raw[off:end])); werr != nil {
					return false
				}
				l.chunks.Add(1)
			}
			out = AppendStreamEnd((*wbuf)[:0], id, p, planCount(p, a), a)
		} else {
			*wbuf = slabFor(pool, *wbuf, wh, 4+headerSize+sectionSize(32)+sectionSize(p.payload))
			out = AppendResponse((*wbuf)[:0], id, k, a)
		}
	}
	if _, werr := c.Write(out); werr != nil {
		return false
	}
	sent.Add(1)
	return true
}
