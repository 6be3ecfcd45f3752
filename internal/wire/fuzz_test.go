package wire

import (
	"errors"
	"io"
	"net"
	"slices"
	"testing"
	"time"

	"repro/internal/kernel"
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
				// Abort the fake server's pending write: the client reads
				// whole frames, so the pipe is left at a frame boundary.
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
