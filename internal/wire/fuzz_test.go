package wire

import (
	"bytes"
	"errors"
	"io"
	"net"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/kernel"
	"repro/internal/scratch"
	"repro/internal/serve"
)

// FuzzFrameDecode throws arbitrary bytes at the request decoder. The
// contract under test: whatever arrives, the decoder either returns a
// well-formed Request or one of the typed errors — it never panics,
// never over-reads, and never turns hostile counts into huge
// allocations (the graph node cap and section bounds checks are what
// this fuzzer exercises). Seeds cover every registered kernel's
// encoded Gen output plus the classic framing attacks.
func FuzzFrameDecode(f *testing.F) {
	for _, k := range kernel.All() {
		a := k.Gen(64, 11)
		frame, err := AppendRequest(nil, 1, "fuzz-tenant", k, a, nil, 0)
		if err != nil {
			f.Fatalf("seed encode %s: %v", k.Name, err)
		}
		f.Add(frame[4:])
	}
	if frame, err := AppendRequest(nil, 2, "t", kernel.MustLookup("sort"),
		kernel.MustLookup("sort").Gen(16, 3), &kernel.Delta{Append: []int64{1, 2}}, 5000); err == nil {
		f.Add(frame[4:])
	}
	f.Add([]byte{})
	f.Add([]byte{frameMagic})
	f.Add(make([]byte, headerSize)) // zero header: bad magic
	f.Fuzz(func(t *testing.T, body []byte) {
		dec := NewDecoder()
		req, err := dec.DecodeRequest(body)
		if err != nil {
			checkTyped(t, err)
			return
		}
		if req.Kernel == nil {
			t.Fatalf("nil kernel on successful decode")
		}
		// A decoded record must at least survive the kernel's own
		// validator without panicking (errors are fine: the listener
		// would bounce them as error frames).
		if req.Kernel.Validate != nil {
			func() {
				defer func() {
					if p := recover(); p != nil {
						t.Fatalf("Validate panicked on decoded args: %v", p)
					}
				}()
				_ = req.Kernel.Validate(&req.Args)
			}()
		}
	})
}

// checkTyped fails unless err is one of the typed decode sentinels, so
// a peer can tell protocol mismatch from a bad frame.
func checkTyped(t *testing.T, err error) {
	t.Helper()
	for _, typed := range []error{ErrBadMagic, ErrBadVersion, ErrBadOrder, ErrTruncated, ErrBadFrame} {
		if errors.Is(err, typed) {
			return
		}
	}
	t.Fatalf("untyped decode error: %v", err)
}

// FuzzResponseDecode is FuzzFrameDecode for the client's side: a body
// goes through DecodeResponseInto, and, when its header decodes, through
// decodeSectionsInto with a fuzzed chunk-stream buffer, as the client
// does for a stream's end frame. The contract: a typed error or
// success, never a panic, and no output slice grown past what the body
// or the stream buffer holds, so a hostile count cannot become a large
// allocation. The record is reused across inputs, as a client reuses
// its caller's. Seeds are every registered kernel's encoded Gen(64)
// response, a stream-end frame with its payload, an error frame, an
// empty body and a zero header.
func FuzzResponseDecode(f *testing.F) {
	for _, k := range kernel.All() {
		f.Add(AppendResponse(nil, 1, k, k.Gen(64, 11))[4:], []byte(nil))
	}
	sortK := kernel.MustLookup("sort")
	a := sortK.Gen(64, 3)
	payload := AppendResponse(nil, 2, sortK, a)[4+headerSize+sectionHdrSize:][:8*len(a.Xs)]
	f.Add(AppendStreamEnd(nil, 2, planResponse(sortK, a), len(a.Xs), a)[4:], payload)
	f.Add(AppendError(nil, 3, codeOther, "remote failure")[4:], []byte(nil))
	f.Add([]byte{}, []byte{})
	f.Add(make([]byte, headerSize), []byte{}) // zero header: bad magic
	var out kernel.Args
	f.Fuzz(func(t *testing.T, body, streamed []byte) {
		decode := func(bound int, run func() error) {
			caps := [4]int{cap(out.Xs), cap(out.Dst), cap(out.Hist), cap(out.Dist)}
			if err := run(); err != nil {
				checkTyped(t, err)
			}
			for i, c := range [4]int{cap(out.Xs), cap(out.Dst), cap(out.Hist), cap(out.Dist)} {
				elem := 8
				if i == 3 {
					elem = 4
				}
				if c != caps[i] && c*elem > bound {
					t.Fatalf("slice %d grew to %d elems from %d input bytes", i, c, bound)
				}
			}
		}
		decode(len(body), func() error { _, err := DecodeResponseInto(body, &out); return err })
		if _, err := DecodeHeader(body); err == nil {
			decode(max(len(body), len(streamed)), func() error {
				return decodeSectionsInto(body, headerSize, &out, streamed)
			})
		}
	})
}

// Chunk records for FuzzChunkReassembly: each is chunkRecSize plan
// bytes — a kind byte, then a 16-bit offset and a 16-bit length, low
// byte first. Kinds below chunkHostile send payload bytes at a bounded
// offset; the rest send a raw Aux the client must refuse: past
// maxFrame, with the top bit set (negative as an int), or straddling
// maxFrame by the chunk's length.
const (
	chunkRecSize = 5
	chunkMaxRecs = 64
	chunkHostile = 5
	chunkMaxLen  = 1024 // a chunk carries at most this many bytes
	chunkSlack   = 512  // in-range offsets may start this far past the payload
)

// chunkRec encodes one chunk record for a seed.
func chunkRec(kind byte, off, n int) []byte {
	return []byte{kind, byte(off), byte(off >> 8), byte(n), byte(n >> 8)}
}

// chunkTiling returns records tiling [0, payload) with size-byte
// chunks, in order or reversed.
func chunkTiling(payload, size int, reversed bool) []byte {
	var recs [][]byte
	for off := 0; off < payload; off += size {
		recs = append(recs, chunkRec(0, off, min(size, payload-off)))
	}
	var plan []byte
	for i := range recs {
		if reversed {
			i = len(recs) - 1 - i
		}
		plan = append(plan, recs[i]...)
	}
	return plan
}

// FuzzChunkReassembly drives Client.roundTrip's chunk-reassembly loop
// against a fake server on the other end of a net.Pipe. The server
// reads each request and answers with a fuzzer-chosen run of chunk
// frames, then the real stream-end frame of a sort Gen(n) response.
// The contract: the call returns nil or a typed error, never panics and
// never hangs (the pipe carries a deadline, so a hang surfaces as an
// untyped read error). The oracle: when the chunks sent before any
// hostile one cover [0, payload) — in any order, overlaps carrying the
// same bytes — the call succeeds and the decoded Xs equal the one-shot
// AppendResponse decode; a hostile chunk fails the call with
// ErrBadFrame. Each input makes two calls on one client, so the second
// reassembles into the stream buffer the first left behind. Offsets
// stay within a few KiB of the payload, so no case allocates near
// DefaultMaxFrame.
func FuzzChunkReassembly(f *testing.F) {
	const n = 64 // seed size: 512 payload bytes
	f.Add(uint8(n-1), chunkTiling(8*n, 128, false))
	f.Add(uint8(n-1), chunkTiling(8*n, 96, true))
	f.Add(uint8(n-1), chunkRec(0, 0, 8*n))
	f.Add(uint8(n-1), append(chunkRec(0, 0, 300), chunkRec(0, 200, 8*n-200)...))
	f.Add(uint8(n-1), append(chunkRec(0, 0, 8*n), chunkRec(chunkHostile, 7, 16)...))
	f.Add(uint8(n-1), append(chunkRec(0, 0, 100), chunkRec(0, 200, 8*n-200)...))
	sortK := kernel.MustLookup("sort")
	f.Fuzz(func(t *testing.T, size uint8, plan []byte) {
		n := 1 + int(size)
		if len(plan) > chunkRecSize*chunkMaxRecs {
			plan = plan[:chunkRecSize*chunkMaxRecs]
		}
		cc, sc := net.Pipe()
		defer cc.Close()
		defer sc.Close()
		cc.SetDeadline(time.Now().Add(10 * time.Second))
		cl := NewClient(cc)
		a := sortK.Gen(n, 1)
		for seed := uint64(1); seed <= 2; seed++ {
			want := sortK.Gen(n, seed)
			oneShot := AppendResponse(nil, 1, sortK, want)
			payload := oneShot[4+headerSize+sectionHdrSize:][:8*n]
			src := make([]byte, len(payload)+chunkSlack+chunkMaxLen)
			for i := copy(src, payload); i < len(src); i++ {
				src[i] = byte(i) | 0x80 // bytes past the payload
			}
			covered := make([]bool, len(payload))
			hostile := false
			done := make(chan struct{})
			go func() {
				defer close(done)
				var lenb [4]byte
				if _, err := io.ReadFull(sc, lenb[:]); err != nil {
					return
				}
				body := make([]byte, nativeOrder.Uint32(lenb[:]))
				if _, err := io.ReadFull(sc, body); err != nil {
					return
				}
				h, err := DecodeHeader(body)
				if err != nil {
					t.Errorf("fake server: request header: %v", err)
					return
				}
				var frame []byte
				for rec := plan; len(rec) >= chunkRecSize; rec = rec[chunkRecSize:] {
					raw := int(rec[1]) | int(rec[2])<<8
					off, ln := raw%(len(payload)+chunkSlack), (int(rec[3])|int(rec[4])<<8)%(chunkMaxLen+1)
					aux := uint64(off)
					switch rec[0] % 8 {
					case chunkHostile:
						aux = DefaultMaxFrame + 1 + uint64(raw)
					case chunkHostile + 1:
						aux = 1<<63 | uint64(raw)
					case chunkHostile + 2:
						aux = DefaultMaxFrame + 1 - uint64(ln) // ends one byte past maxFrame
					default:
						if !hostile {
							for i := off; i < min(off+ln, len(covered)); i++ {
								covered[i] = true
							}
						}
					}
					hostile = hostile || rec[0]%8 >= chunkHostile
					frame = AppendChunk(frame[:0], h.ID, int(aux), src[off:off+ln])
					if _, err := sc.Write(frame); err != nil {
						return // the client gave up on this response
					}
				}
				frame = AppendStreamEnd(frame[:0], h.ID, planResponse(sortK, want), n, want)
				sc.Write(frame)
			}()
			err := cl.CallBudget("t", sortK, a, 0)
			if err != nil {
				// Abort the fake server's pending write. Each frame is one
				// Write and a pipe Read returns at most one Write, so the
				// client has read no byte past the frame it failed on and
				// the pipe is left at a frame boundary.
				sc.SetDeadline(time.Now())
			}
			<-done
			sc.SetDeadline(time.Time{})
			complete := true
			for _, c := range covered {
				complete = complete && c
			}
			switch {
			case hostile:
				if !errors.Is(err, ErrBadFrame) {
					t.Fatalf("call %d: hostile chunk offset: err = %v, want ErrBadFrame", seed, err)
				}
			case complete:
				if err != nil {
					t.Fatalf("call %d: chunks cover the payload, but err = %v", seed, err)
				}
				var oracle kernel.Args
				if _, err := DecodeResponseInto(oneShot[4:], &oracle); err != nil {
					t.Fatalf("one-shot decode: %v", err)
				}
				if !slices.Equal(a.Xs, oracle.Xs) {
					t.Fatalf("call %d: reassembled Xs differ from the one-shot decode", seed)
				}
			case err != nil:
				checkTyped(t, err)
			}
		}
	})
}

// pipeListener is a net.Listener that hands out one connection — the
// server end of a net.Pipe — then blocks until closed.
type pipeListener struct {
	conns chan net.Conn
	done  chan struct{}
	once  sync.Once
	addr  net.Addr
}

func newPipeListener(c net.Conn) *pipeListener {
	l := &pipeListener{conns: make(chan net.Conn, 1), done: make(chan struct{}), addr: c.LocalAddr()}
	l.conns <- c
	return l
}

func (l *pipeListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

func (l *pipeListener) Close() error   { l.once.Do(func() { close(l.done) }); return nil }
func (l *pipeListener) Addr() net.Addr { return l.addr }

// sortOnly is a Backend whose reply is a pure function of the frame:
// sort requests run the kernel's serial oracle, every other call is
// rejected.
type sortOnly struct{}

func (sortOnly) CallBudget(_ string, k *kernel.Kernel, a *kernel.Args, _ time.Duration) error {
	if k.Name != "sort" {
		return serve.ErrRejected
	}
	if k.Validate != nil {
		if err := k.Validate(a); err != nil {
			return err
		}
	}
	k.Serial(a)
	return nil
}

func (sortOnly) CallDeltaBudget(string, *kernel.Kernel, *kernel.Args, *kernel.Delta, time.Duration) error {
	return serve.ErrRejected
}

// listenerReplies is the oracle for FuzzListenerFrames: the reply
// frames a listener with frame bound maxFrame owes the byte stream, in
// order — one per complete frame — and whether it hangs up after the
// last (an insane length prefix, or a frame from another protocol). It
// also returns what is left over: the start of a frame not yet whole.
func listenerReplies(stream []byte, maxFrame int) (replies [][]byte, hangup bool, rest []byte) {
	dec := NewDecoder()
	for len(stream) >= 4 {
		n := int(nativeOrder.Uint32(stream))
		if n < headerSize || n > maxFrame {
			return append(replies, AppendError(nil, 0, codeOther, ErrFrameTooLarge.Error())), true, nil
		}
		if len(stream) < 4+n {
			break
		}
		body := append([]byte(nil), stream[4:4+n]...) // 8-aligned, as in the listener's slab
		stream = stream[4+n:]
		req, err := dec.DecodeRequest(body)
		fatal := err != nil && fatalDecode(err)
		switch {
		case err != nil:
		case req.IsDelta:
			err = sortOnly{}.CallDeltaBudget(req.Tenant, req.Kernel, &req.Args, &req.Delta, req.Budget)
		default:
			err = sortOnly{}.CallBudget(req.Tenant, req.Kernel, &req.Args, req.Budget)
		}
		if err != nil {
			replies = append(replies, AppendError(nil, req.ID, errorCode(err), err.Error()))
		} else {
			replies = append(replies, AppendResponse(nil, req.ID, req.Kernel, &req.Args))
		}
		if fatal {
			return replies, true, nil
		}
	}
	return replies, false, stream
}

// FuzzListenerFrames drives the listener's frame loop — the reader
// that takes as many bytes as arrive and keeps what is past a frame —
// over a net.Pipe, with fuzzer-chosen bytes sent in fuzzer-chosen
// writes (each two bytes of cuts, low byte first, is the length of the
// next write less one; the last cut repeats, and after maxCuts writes
// the rest goes in one, which bounds an input's cost when the minimizer
// shrinks the cuts to single bytes). The stream is completed
// the way a client could: zeros finish a trailing partial frame, then,
// unless the listener has hung up, a valid sort frame ends it, so the
// test knows which reply is last. The contract: no panic, no hang (the
// pipe carries a deadline), exactly the replies listenerReplies owes —
// one per complete frame, in order, a valid sort frame's being
// AppendResponse of the serial result — and then end of stream if the
// listener hung up; and no scratch byte left live after Close.
func FuzzListenerFrames(f *testing.F) {
	const maxFrame, maxCuts = 64 << 10, 64
	sortK := kernel.MustLookup("sort")
	req := func(buf []byte, id uint64, n int) []byte {
		buf, err := AppendRequest(buf, id, "fuzz", sortK, sortK.Gen(n, id), nil, 0)
		if err != nil {
			f.Fatalf("seed encode: %v", err)
		}
		return buf
	}
	cuts := func(ns ...int) []byte {
		var b []byte
		for _, n := range ns {
			b = append(b, byte(n-1), byte((n-1)>>8))
		}
		return b
	}
	three := req(req(req(nil, 1, 5), 2, 17), 3, 64)
	f.Add(three, cuts(len(three)))      // several frames in one write
	f.Add(req(nil, 4, 9), cuts(2, 500)) // a prefix split across writes
	odd := make([]byte, 4+headerSize+1) // a 33-byte body, then a valid frame
	nativeOrder.PutUint32(odd, headerSize+1)
	putHeader(odd[4:], frameRequest, 0, 5, 0)
	odd = req(odd, 6, 7)
	f.Add(odd, cuts(len(odd)))
	f.Add(append([]byte{0xff, 0xff, 0xff, 0xff}, req(nil, 7, 3)...), cuts(3, 1)) // an oversize prefix
	hist := kernel.MustLookup("histogram")
	mixed, _ := AppendRequest(nil, 8, "fuzz", hist, hist.Gen(32, 1), nil, 0)
	mixed, _ = AppendRequest(mixed, 9, "fuzz", sortK, sortK.Gen(8, 2), &kernel.Delta{Append: []int64{1}}, 0)
	mixed = req(mixed, 10, 33)
	f.Add(mixed, cuts(1, 7, 100, 40))
	f.Fuzz(func(t *testing.T, data, cutPlan []byte) {
		if len(data) > 4*maxFrame {
			data = data[:4*maxFrame]
		}
		stream := append([]byte(nil), data...)
		replies, hangup, rest := listenerReplies(stream, maxFrame)
		for !hangup && len(rest) > 0 {
			need := 4
			if len(rest) >= 4 {
				need = 4 + int(nativeOrder.Uint32(rest))
			}
			stream = append(stream, make([]byte, need-len(rest))...)
			replies, hangup, rest = listenerReplies(stream, maxFrame)
		}
		const lastID = 1 << 62
		if !hangup {
			stream = req(stream, lastID, 6)
			replies, hangup, _ = listenerReplies(stream, maxFrame)
			if last, _ := DecodeHeader(replies[len(replies)-1][4:]); hangup || last.ID != lastID || last.Type != frameResponse {
				t.Fatalf("oracle: the closing sort frame got %+v (hangup %v)", last, hangup)
			}
		}

		pool := scratch.New()
		cc, sc := net.Pipe()
		defer cc.Close()
		cc.SetDeadline(time.Now().Add(10 * time.Second))
		l := Serve(newPipeListener(sc), sortOnly{}, Config{MaxFrame: maxFrame, Scratch: pool})
		wrote := make(chan struct{})
		go func() {
			defer close(wrote)
			for i, s := 0, stream; len(s) > 0; i++ {
				n := len(s)
				if len(cutPlan) >= 2 && i < maxCuts {
					j := 2 * min(i, len(cutPlan)/2-1)
					n = min(n, 1+int(cutPlan[j])|int(cutPlan[j+1])<<8)
				}
				if _, err := cc.Write(s[:n]); err != nil {
					return // the listener hung up
				}
				s = s[n:]
			}
		}()
		var lenb [4]byte
		for i, want := range replies {
			if _, err := io.ReadFull(cc, lenb[:]); err != nil {
				t.Fatalf("reply %d of %d: %v", i+1, len(replies), err)
			}
			got := make([]byte, 4+nativeOrder.Uint32(lenb[:]))
			copy(got, lenb[:])
			if _, err := io.ReadFull(cc, got[4:]); err != nil {
				t.Fatalf("reply %d of %d: %v", i+1, len(replies), err)
			}
			if !bytes.Equal(got, want) {
				h, _ := DecodeHeader(got[4:])
				w, _ := DecodeHeader(want[4:])
				t.Fatalf("reply %d of %d: got %+v (%d bytes), want %+v (%d bytes)", i+1, len(replies), h, len(got), w, len(want))
			}
		}
		if hangup {
			if n, err := cc.Read(lenb[:]); err != io.EOF {
				t.Fatalf("after the last reply: read %d bytes, err %v; want the listener to have hung up", n, err)
			}
		}
		cc.Close()
		<-wrote
		l.Close()
		if live := pool.Stats().BytesLive; live != 0 {
			t.Fatalf("%d scratch bytes live after Close", live)
		}
	})
}
