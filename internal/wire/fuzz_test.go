package wire

import (
	"errors"
	"testing"

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
