package wire

import (
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/kernel"
	"repro/internal/serve"
)

// Client speaks the wire protocol from the caller's side of a socket.
// It is a serve.Front, so code written against a serve.Server — the
// typed helpers included — runs unchanged against a remote one. Calls
// are serialized per client — the protocol is strictly request/response
// on one connection — so concurrency comes from one Client per
// goroutine (or a small pool), mirroring how the listener scales by
// connection.
type Client struct {
	mu sync.Mutex
	c  net.Conn
	id uint64
	// Reused frame buffers: the request's computed bytes, the frames
	// read, and stream reassembly. Warm round trips with stable payload
	// sizes allocate nothing.
	ws       slab
	w        frameWriter
	r        frameReader
	sbuf     []byte
	maxFrame int
}

var _ serve.Front = (*Client)(nil)

// Dial connects to a wire listener ("tcp", "host:port" or "unix",
// "/path.sock").
func Dial(network, addr string) (*Client, error) {
	c, err := net.Dial(network, addr)
	if err != nil {
		return nil, err
	}
	return NewClient(c), nil
}

// NewClient wraps an established connection. It takes ownership:
// Close closes the connection.
func NewClient(c net.Conn) *Client {
	return &Client{c: c, maxFrame: DefaultMaxFrame}
}

// Close closes the underlying connection. It does not wait for the
// call mutex: roundTrip holds that across its socket reads, and closing
// the connection under it is what makes a call stalled on a silent
// server return (with a read error) instead of blocking Close forever.
func (cl *Client) Close() error { return cl.c.Close() }

// CallBudget sends one request and decodes the reply into a. A
// positive budget rides the frame metadata and the server's admission
// ladder enforces it as that request's SLO; zero inherits the
// server-side SLO.
func (cl *Client) CallBudget(tenant string, k *kernel.Kernel, a *kernel.Args, budget time.Duration) error {
	return cl.roundTrip(tenant, k, a, nil, budget)
}

// CallDeltaBudget sends one incremental request. The reply may be
// larger than the request — a sorted-merge append grows Xs — in which
// case the decoded slice grows too.
func (cl *Client) CallDeltaBudget(tenant string, k *kernel.Kernel, a *kernel.Args, d *kernel.Delta, budget time.Duration) error {
	return cl.roundTrip(tenant, k, a, d, budget)
}

// roundTrip writes one request frame — one vectored write, with the
// Args' slices sent in place — and reads frames until the response
// completes: one response frame, or a run of chunk frames closed by the
// geometry frame, or an error frame mapped back to the serve sentinels.
func (cl *Client) roundTrip(tenant string, k *kernel.Kernel, a *kernel.Args, d *kernel.Delta, budget time.Duration) error {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	cl.id++
	if err := checkRequest(tenant, k); err != nil {
		return err
	}
	body, refs := requestSize(k.Name, tenant, a, d)
	cl.w.reset(cl.ws.grow(4+body-refs, 0))
	cl.w.request(body, cl.id, tenant, k, a, d, budget)
	if err := cl.w.writeTo(cl.c); err != nil {
		return fmt.Errorf("wire: write: %w", err)
	}
	stream := cl.sbuf[:0]
	for {
		body, err := cl.r.next(cl.c, cl.maxFrame)
		if err != nil {
			return err
		}
		h, err := DecodeHeader(body)
		if err != nil {
			return err
		}
		if h.Type == frameError && h.ID == 0 {
			// Request ids start at 1: id 0 is the server refusing a
			// frame whose header it could not read, or the stream itself.
			return fmt.Errorf("wire: connection error: %w", DecodeError(h, body))
		}
		if h.ID != cl.id {
			return fmt.Errorf("%w: response id %d, want %d", ErrBadFrame, h.ID, cl.id)
		}
		switch h.Type {
		case frameResponse:
			return decodeSectionsInto(body, headerSize, a, nil)
		case frameChunk:
			off := int(h.Aux)
			payload := body[headerSize:]
			if off < 0 || h.Aux > uint64(cl.maxFrame) || off+len(payload) > cl.maxFrame {
				return fmt.Errorf("%w: chunk offset %d", ErrBadFrame, h.Aux)
			}
			stream = ensure(stream, max(len(stream), off+len(payload)))
			copy(stream[off:], payload)
			cl.sbuf = stream
		case frameEnd:
			cl.sbuf = stream
			return decodeSectionsInto(body, headerSize, a, stream)
		case frameError:
			return DecodeError(h, body)
		default:
			return fmt.Errorf("%w: frame type %d mid-response", ErrBadFrame, h.Type)
		}
	}
}
