package wire

import (
	"bytes"
	"errors"
	"io"
	"slices"
	"sync"
	"testing"
	"time"
	"unsafe"

	"repro/internal/graph"
	"repro/internal/kernel"
	"repro/internal/par"
)

// parOptions runs kernels serially in tests: the codec is what is
// under test, not the executor.
func parOptions() par.Options {
	return par.Options{Procs: 1, SerialCutoff: 1 << 62}
}

// decodeFrame strips the length prefix a full Append* frame carries
// and hands the body to the decoder, checking the prefix is honest.
func decodeFrame(t *testing.T, frame []byte) []byte {
	t.Helper()
	if len(frame) < 4 {
		t.Fatalf("frame too short for a length prefix: %d bytes", len(frame))
	}
	n := int(nativeOrder.Uint32(frame))
	if n != len(frame)-4 {
		t.Fatalf("length prefix %d, body %d", n, len(frame)-4)
	}
	return frame[4:]
}

func sameInt64s(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestRequestRoundTrip pins encode→decode identity over every
// registered kernel's generated argument record: slices, scalars and
// graph topology survive the wire byte-for-byte, and the bucket
// function (which cannot cross a socket) is replaced by the canonical
// one with identical behavior on the generator's records.
func TestRequestRoundTrip(t *testing.T) {
	for _, k := range kernel.All() {
		t.Run(k.Name, func(t *testing.T) {
			a := k.Gen(257, 42)
			frame, err := AppendRequest(nil, 7, "tenant-a", k, a, nil, 3*time.Millisecond)
			if err != nil {
				t.Fatalf("AppendRequest: %v", err)
			}
			body := decodeFrame(t, frame)
			req, err := NewDecoder().DecodeRequest(body)
			if err != nil {
				t.Fatalf("DecodeRequest: %v", err)
			}
			if req.ID != 7 || req.Tenant != "tenant-a" || req.Kernel != k {
				t.Fatalf("identity: id=%d tenant=%q kernel=%v", req.ID, req.Tenant, req.Kernel)
			}
			if req.Budget != 3*time.Millisecond {
				t.Fatalf("budget = %v, want 3ms", req.Budget)
			}
			got, want := &req.Args, a
			if !sameInt64s(got.Xs, want.Xs) {
				t.Fatalf("Xs differ: %d vs %d elems", len(got.Xs), len(want.Xs))
			}
			if !sameInt64s(got.Dst, want.Dst) {
				t.Fatalf("Dst differ")
			}
			if len(got.Hist) != len(want.Hist) {
				t.Fatalf("Hist len %d, want %d", len(got.Hist), len(want.Hist))
			}
			for i := range got.Hist {
				if got.Hist[i] != want.Hist[i] {
					t.Fatalf("Hist[%d] = %d, want %d", i, got.Hist[i], want.Hist[i])
				}
			}
			if len(got.Dist) != len(want.Dist) {
				t.Fatalf("Dist len %d, want %d", len(got.Dist), len(want.Dist))
			}
			if got.K != want.K || got.Src != want.Src || got.Out != want.Out || got.Seed != want.Seed {
				t.Fatalf("scalars differ: %+v vs %+v", got, want)
			}
			if (got.G == nil) != (want.G == nil) {
				t.Fatalf("graph presence differs")
			}
			if want.G != nil {
				if got.G.N() != want.G.N() || got.G.M() != want.G.M() {
					t.Fatalf("graph shape %d/%d, want %d/%d", got.G.N(), got.G.M(), want.G.N(), want.G.M())
				}
				ge, we := got.G.Edges(), want.G.Edges()
				for i := range we {
					if ge[i].U != we[i].U || ge[i].V != we[i].V {
						t.Fatalf("edge %d: %v vs %v", i, ge[i], we[i])
					}
				}
			}
			if want.Bucket != nil {
				if got.Bucket == nil {
					t.Fatalf("bucket not installed for %s", k.Name)
				}
				for _, v := range append(append([]int64{}, want.Xs...), -1, 0, 1, 1<<40, -1<<40) {
					if got.Bucket(v) != want.Bucket(v) {
						t.Fatalf("bucket(%d) = %d, want %d", v, got.Bucket(v), want.Bucket(v))
					}
				}
			}
		})
	}
}

// TestDeltaRoundTrip pins the delta sections: append payloads (sort)
// and edge lists (cc) survive and the delta flag is honored.
func TestDeltaRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		name string
		d    *kernel.Delta
	}{
		{"sort", &kernel.Delta{Append: []int64{5, -3, 99}}},
		{"cc", &kernel.Delta{Edges: []graph.Edge{{U: 0, V: 7}, {U: 3, V: 3}, {U: 12, V: 1}}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			k := kernel.MustLookup(tc.name)
			a := k.Gen(64, 9)
			k.Run(a, parOptions())
			frame, err := AppendRequest(nil, 1, "t", k, a, tc.d, 0)
			if err != nil {
				t.Fatalf("AppendRequest: %v", err)
			}
			req, err := NewDecoder().DecodeRequest(decodeFrame(t, frame))
			if err != nil {
				t.Fatalf("DecodeRequest: %v", err)
			}
			if !req.IsDelta {
				t.Fatalf("delta flag lost")
			}
			if !sameInt64s(req.Delta.Append, tc.d.Append) || (req.Delta.Append == nil) != (tc.d.Append == nil) {
				t.Fatalf("delta append = %v, want %v", req.Delta.Append, tc.d.Append)
			}
			if !slices.Equal(req.Delta.Edges, tc.d.Edges) || (req.Delta.Edges == nil) != (tc.d.Edges == nil) {
				t.Fatalf("delta edges = %v, want %v", req.Delta.Edges, tc.d.Edges)
			}
		})
	}
}

// TestMisalignedBodies pins the copy fallback: a request body, and a
// response body of each output section, decoded from an odd offset
// yields the same slices as the aligned decode, copied rather than
// cast.
func TestMisalignedBodies(t *testing.T) {
	// misaligned returns a copy of body starting one byte past an
	// 8-byte boundary.
	misaligned := func(body []byte) []byte {
		buf := make([]byte, len(body)+1)
		return buf[1:][:copy(buf[1:], body)]
	}
	k := kernel.MustLookup("sort")
	a := &kernel.Args{
		Xs:   []int64{3, -1, 4, 1 << 40},
		Dst:  []int64{-5, 9, 2},
		Hist: []int{7, 0, -2, 1 << 33, 5},
		Dist: []int32{1, -1, 6},
	}
	d := &kernel.Delta{Append: []int64{8, -8, 1 << 50}}
	frame, err := AppendRequest(nil, 1, "t", k, a, d, 0)
	if err != nil {
		t.Fatalf("AppendRequest: %v", err)
	}
	body := decodeFrame(t, frame)
	dec := NewDecoder()
	want, err := dec.DecodeRequest(body)
	if err != nil {
		t.Fatalf("aligned DecodeRequest: %v", err)
	}
	odd := misaligned(body)
	got, err := dec.DecodeRequest(odd)
	if err != nil {
		t.Fatalf("misaligned DecodeRequest: %v", err)
	}
	for _, c := range []struct {
		name      string
		got, want []byte
	}{
		{"Xs", bytesOf(got.Args.Xs), bytesOf(want.Args.Xs)},
		{"Dst", bytesOf(got.Args.Dst), bytesOf(want.Args.Dst)},
		{"Hist", bytesOf(got.Args.Hist), bytesOf(want.Args.Hist)},
		{"Dist", bytesOf(got.Args.Dist), bytesOf(want.Args.Dist)},
		{"Delta.Append", bytesOf(got.Delta.Append), bytesOf(want.Delta.Append)},
	} {
		if len(c.want) == 0 || !bytes.Equal(c.got, c.want) {
			t.Fatalf("request %s: misaligned decode %v, aligned %v", c.name, c.got, c.want)
		}
		at := uintptr(unsafe.Pointer(unsafe.SliceData(c.got))) - uintptr(unsafe.Pointer(&odd[0]))
		if at < uintptr(len(odd)) {
			t.Fatalf("request %s: misaligned decode aliases the body instead of copying", c.name)
		}
	}

	for _, name := range []string{"sort", "scan", "histogram", "bfs"} {
		k := kernel.MustLookup(name)
		a := k.Gen(97, 5)
		k.Run(a, parOptions())
		body := decodeFrame(t, AppendResponse(nil, 2, k, a))
		var want, got kernel.Args
		if _, err := DecodeResponseInto(body, &want); err != nil {
			t.Fatalf("%s: aligned DecodeResponseInto: %v", name, err)
		}
		if _, err := DecodeResponseInto(misaligned(body), &got); err != nil {
			t.Fatalf("%s: misaligned DecodeResponseInto: %v", name, err)
		}
		if !slices.Equal(got.Xs, want.Xs) || !slices.Equal(got.Dst, want.Dst) ||
			!slices.Equal(got.Hist, want.Hist) || !slices.Equal(got.Dist, want.Dist) || got.Out != want.Out {
			t.Fatalf("%s: misaligned response decode differs from aligned", name)
		}
		if len(want.Xs)+len(want.Dst)+len(want.Hist)+len(want.Dist) == 0 {
			t.Fatalf("%s: response carried no slice section", name)
		}
	}
}

// TestResponseRoundTrip pins, for every registered kernel, which
// section its one-shot response carries — in-place Xs (sort, gups), Dst
// (scan, topk), Hist (histogram), Dist (bfs, cc), or scalars only (sum,
// select) — and that the section decodes back to the kernel's output.
func TestResponseRoundTrip(t *testing.T) {
	carries := map[string]byte{
		"sort": secXs, "gups": secXs,
		"scan": secDst, "topk": secDst,
		"histogram": secHist,
		"bfs":       secDist, "cc": secDist,
		"sum": secScalars, "select": secScalars,
	}
	for _, k := range kernel.All() {
		if k == gateKernel || k.Name == "wirelate" {
			continue // test-only registrations of this package
		}
		t.Run(k.Name, func(t *testing.T) {
			want, ok := carries[k.Name]
			if !ok {
				t.Fatalf("no expected response section for kernel %q", k.Name)
			}
			a := k.Gen(193, 3)
			k.Run(a, parOptions())
			frame := AppendResponse(nil, 11, k, a)
			var got kernel.Args
			// Seed the caller-side record the way a client would: same
			// input geometry, outputs to be overwritten.
			got.Xs = make([]int64, len(a.Xs))
			got.Dst = make([]int64, len(a.Dst))
			got.Hist = make([]int, len(a.Hist))
			body := decodeFrame(t, frame)
			if s, _, err := nextSection(body, headerSize); err != nil || s.tag != want {
				t.Fatalf("first section: tag %d (err %v), want %d", s.tag, err, want)
			}
			h, err := DecodeResponseInto(body, &got)
			if err != nil {
				t.Fatalf("DecodeResponseInto: %v", err)
			}
			if h.ID != 11 {
				t.Fatalf("id = %d", h.ID)
			}
			switch want {
			case secXs:
				if !sameInt64s(got.Xs, a.Xs) {
					t.Fatalf("Xs differ")
				}
			case secDst:
				if !sameInt64s(got.Dst, a.Dst) {
					t.Fatalf("Dst differ")
				}
			case secHist:
				for i := range a.Hist {
					if got.Hist[i] != a.Hist[i] {
						t.Fatalf("Hist[%d] differs", i)
					}
				}
			case secDist:
				if len(got.Dist) != len(a.Dist) {
					t.Fatalf("Dist len %d, want %d", len(got.Dist), len(a.Dist))
				}
				for i := range a.Dist {
					if got.Dist[i] != a.Dist[i] {
						t.Fatalf("Dist[%d] differs", i)
					}
				}
			}
			if got.Out != a.Out || got.Seed != a.Seed {
				t.Fatalf("scalars differ: out %d vs %d", got.Out, a.Out)
			}
		})
	}
}

// TestDecodeTypedErrors pins the loud-rejection contract: bad magic,
// bad version, cross-endian sentinel, truncation and hostile section
// counts each land on their typed error, never a panic.
func TestDecodeTypedErrors(t *testing.T) {
	k := kernel.MustLookup("sort")
	a := k.Gen(32, 1)
	frame, err := AppendRequest(nil, 1, "t", k, a, nil, 0)
	if err != nil {
		t.Fatalf("AppendRequest: %v", err)
	}
	body := frame[4:]
	dec := NewDecoder()

	mut := func(f func(b []byte)) []byte {
		cp := append([]byte(nil), body...)
		f(cp)
		return cp
	}
	cases := []struct {
		name string
		body []byte
		want error
	}{
		{"empty", nil, ErrTruncated},
		{"short-header", body[:headerSize-1], ErrTruncated},
		{"bad-magic", mut(func(b []byte) { b[0] = 0x00 }), ErrBadMagic},
		{"bad-version", mut(func(b []byte) { b[1] = 99 }), ErrBadVersion},
		{"cross-endian", mut(func(b []byte) { b[4], b[5] = b[5], b[4] }), ErrBadOrder},
		{"bad-type", mut(func(b []byte) { b[2] = 42 }), ErrBadFrame},
		{"truncated-section", body[:len(body)-8], ErrTruncated},
		{"oversized-count", mut(func(b []byte) {
			// The Xs section header sits right after the padded names;
			// inflate its count far past the body.
			off := headerSize + align8(2+len("sort")+len("t"))
			nativeOrder.PutUint32(b[off+4:], 1<<30)
		}), ErrTruncated},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := dec.DecodeRequest(tc.body)
			if !errors.Is(err, tc.want) {
				t.Fatalf("err = %v, want %v", err, tc.want)
			}
		})
	}
}

// TestCodecSteadyStateAllocs pins the zero-copy contract directly on
// the codec: a warm encode+decode round trip of a request frame and a
// response frame allocates nothing (slab-aliased decode, reused
// buffers, interned tenant, cached bucket closure).
func TestCodecSteadyStateAllocs(t *testing.T) {
	sort := kernel.MustLookup("sort")
	hist := kernel.MustLookup("histogram")
	sa := sort.Gen(512, 5)
	ha := hist.Gen(512, 6)
	dec := NewDecoder()
	var reqBuf, respBuf []byte
	var err error
	// Warm every path once: buffers sized, tenant interned, bucket
	// closure cached.
	warm := func() {
		reqBuf, err = AppendRequest(reqBuf[:0], 1, "tenant", sort, sa, nil, time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		if _, err = dec.DecodeRequest(reqBuf[4:]); err != nil {
			t.Fatal(err)
		}
		reqBuf, err = AppendRequest(reqBuf[:0], 2, "tenant", hist, ha, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err = dec.DecodeRequest(reqBuf[4:]); err != nil {
			t.Fatal(err)
		}
		respBuf = AppendResponse(respBuf[:0], 1, sort, sa)
		var out kernel.Args
		out.Xs = make([]int64, len(sa.Xs))
		if _, err = DecodeResponseInto(respBuf[4:], &out); err != nil {
			t.Fatal(err)
		}
	}
	warm()
	// The decoder sees frame bodies 8-aligned (the listener's reader
	// puts a frame's prefix at slab offset 4, so its body starts at 8),
	// so the pin copies each body into an 8-aligned buffer exactly like
	// the read path does — decoding at frame[4:] would hit the
	// misaligned-copy fallback and measure the wrong thing.
	body := make([]byte, 1<<16)
	out := kernel.Args{Xs: make([]int64, len(sa.Xs))}
	allocs := testing.AllocsPerRun(200, func() {
		reqBuf, _ = AppendRequest(reqBuf[:0], 3, "tenant", sort, sa, nil, time.Millisecond)
		n := copy(body, reqBuf[4:])
		if _, err := dec.DecodeRequest(body[:n]); err != nil {
			t.Fatal(err)
		}
		reqBuf, _ = AppendRequest(reqBuf[:0], 4, "tenant", hist, ha, nil, 0)
		n = copy(body, reqBuf[4:])
		if _, err := dec.DecodeRequest(body[:n]); err != nil {
			t.Fatal(err)
		}
		respBuf = AppendResponse(respBuf[:0], 3, sort, sa)
		n = copy(body, respBuf[4:])
		if _, err := DecodeResponseInto(body[:n], &out); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("codec round trip allocates %.1f per run, want 0", allocs)
	}

	// A graph request is encoded straight from the CSR. Its decode
	// builds a graph, so it allocates by design and is not pinned.
	bfs := kernel.MustLookup("bfs")
	ba := bfs.Gen(4096, 7)
	reqBuf, _ = AppendRequest(reqBuf[:0], 5, "tenant", bfs, ba, nil, 0)
	allocs = testing.AllocsPerRun(100, func() {
		reqBuf, _ = AppendRequest(reqBuf[:0], 5, "tenant", bfs, ba, nil, 0)
	})
	if allocs != 0 {
		t.Fatalf("graph request encode allocates %.1f per run, want 0", allocs)
	}
}

// TestDecodeLateRegisteredKernelConcurrently pins that kernel-name
// resolution has no state of its own to race on: a kernel registered
// after this package initialised resolves from many decoding
// goroutines at once (the benchmark's `<kernel>.traced` twins arrive
// exactly this way, on live connections). Run under -race.
func TestDecodeLateRegisteredKernelConcurrently(t *testing.T) {
	const name = "wirelate"
	k := kernel.Lookup(name)
	if k == nil { // -count>1 reruns in one process; register once
		sum := func(a *kernel.Args) {
			a.Out = 0
			for _, x := range a.Xs {
				a.Out += x
			}
		}
		k = kernel.Register(kernel.Kernel{
			Name:     name,
			Title:    "test kernel registered after wire's package init",
			Variants: []kernel.Variant{{Name: "serial", Run: func(a *kernel.Args, _ par.Options) { sum(a) }}},
			Serial:   sum,
			Gen:      func(n int, seed uint64) *kernel.Args { return &kernel.Args{Xs: make([]int64, n), Seed: seed} },
			Check:    func(got, want *kernel.Args) error { return nil },
		})
	}
	frame, err := AppendRequest(nil, 1, "t", k, k.Gen(8, 1), nil, 0)
	if err != nil {
		t.Fatalf("AppendRequest: %v", err)
	}
	body := decodeFrame(t, frame)

	const decoders = 8
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < decoders; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			dec := NewDecoder()
			<-start
			for i := 0; i < 100; i++ {
				req, err := dec.DecodeRequest(body)
				if err != nil {
					t.Errorf("DecodeRequest: %v", err)
					return
				}
				if req.Kernel != k {
					t.Errorf("decoded kernel %v, want %s", req.Kernel, name)
					return
				}
			}
		}()
	}
	close(start)
	wg.Wait()
}

// flatten concatenates a vectored writer's parts: the bytes its one
// vectored write puts on the socket.
func flatten(w *frameWriter) []byte {
	w.cut()
	var out []byte
	for _, p := range w.vec {
		out = append(out, p...)
	}
	return out
}

// TestVectoredMatchesFlat pins the one-layout contract: the parts a
// vectored writer lists — each slab sized only for the computed bytes,
// as the listener and client size theirs — concatenate to exactly the
// Append* bytes, for a request of every kernel (plain and delta), its
// one-shot response, and a streamed response's chunk frames plus end
// frame; and slice payloads are listed by reference, not copied.
func TestVectoredMatchesFlat(t *testing.T) {
	for _, k := range kernel.All() {
		t.Run(k.Name, func(t *testing.T) {
			a := k.Gen(301, 13)
			for _, d := range []*kernel.Delta{nil, {Append: []int64{4, -2, 9}}} {
				flat, err := AppendRequest(nil, 5, "tenant-v", k, a, d, time.Millisecond)
				if err != nil {
					t.Fatalf("AppendRequest: %v", err)
				}
				body, refs := requestSize(k.Name, "tenant-v", a, d)
				var w frameWriter
				w.reset(make([]byte, 4+body-refs))
				w.request(body, 5, "tenant-v", k, a, d, time.Millisecond)
				if got := flatten(&w); !bytes.Equal(got, flat) {
					t.Fatalf("vectored request (delta %v) differs from AppendRequest", d != nil)
				}
				if len(w.b) != 4+body-refs {
					t.Fatalf("request slab holds %d computed bytes, sized %d", len(w.b), 4+body-refs)
				}
			}

			k.Run(a, parOptions())
			p := planResponse(k, a)
			var w frameWriter
			w.reset(make([]byte, 4+responseBody(p)-len(p.raw)))
			w.response(11, p, a)
			if got := flatten(&w); !bytes.Equal(got, AppendResponse(nil, 11, k, a)) {
				t.Fatalf("vectored response differs from AppendResponse")
			}
			if len(p.raw) > 0 && !slices.ContainsFunc(w.vec, func(part []byte) bool {
				return unsafe.SliceData(part) == unsafe.SliceData(p.raw)
			}) {
				t.Fatalf("response payload was not listed by reference")
			}

			const size = 200 // odd-sized chunks: the last one is short
			chunks := (len(p.raw) + size - 1) / size
			w.reset(make([]byte, chunks*(4+headerSize)+4+streamEndBody))
			var want []byte
			for off := 0; off < len(p.raw); off += size {
				chunk := p.raw[off:min(off+size, len(p.raw))]
				w.chunk(11, off, chunk)
				want = AppendChunk(want, 11, off, chunk)
			}
			w.streamEnd(11, p, p.count, a)
			want = AppendStreamEnd(want, 11, p, p.count, a)
			if got := flatten(&w); !bytes.Equal(got, want) {
				t.Fatalf("vectored stream differs from AppendChunk... + AppendStreamEnd")
			}
		})
	}
}

// TestFrameReaderPipelinedRunIsLinear pins the reader's cost on
// pipelined frames: a large frame sizes the buffer, then thousands of
// small frames arrive a buffer's worth per read. Each frame must be
// decoded where it lies, the unread bytes moving to the front only when
// the next frame would not fit behind them, so the buffer restarts about
// once per buffer's worth of frames, not once per frame (which would
// copy the whole unread tail every frame: quadratic per read). In a run
// every other frame sits 4 bytes off the 8-byte grid, and bodies whose
// length is not a multiple of 8 shift it further; every body must still
// come back 8-aligned and intact.
func TestFrameReaderPipelinedRunIsLinear(t *testing.T) {
	const big, small = 256 << 10, 16 << 10
	for _, odd := range []bool{false, true} {
		bodyLen := func(i int) int {
			if i == 0 {
				return big
			}
			if odd && i%3 == 0 {
				return 97
			}
			return 96
		}
		var stream []byte
		for i := 0; i <= small; i++ {
			n := bodyLen(i)
			stream = nativeOrder.AppendUint32(stream, uint32(n))
			for j := 0; j < n; j++ {
				stream = append(stream, byte(i*7+j))
			}
		}
		var r frameReader
		src := bytes.NewReader(stream)
		restarts, last := 0, uintptr(0)
		for i := 0; i <= small; i++ {
			body, err := r.next(src, DefaultMaxFrame)
			if err != nil {
				t.Fatalf("odd=%v frame %d: %v", odd, i, err)
			}
			if len(body) != bodyLen(i) {
				t.Fatalf("odd=%v frame %d: %d bytes, want %d", odd, i, len(body), bodyLen(i))
			}
			for j, b := range body {
				if b != byte(i*7+j) {
					t.Fatalf("odd=%v frame %d: byte %d corrupted", odd, i, j)
				}
			}
			at := uintptr(unsafe.Pointer(&body[0])) - uintptr(unsafe.Pointer(&r.s.b[0]))
			if at%8 != 0 {
				t.Fatalf("odd=%v frame %d: body at buffer offset %d, not 8-aligned", odd, i, at)
			}
			if at <= last {
				restarts++
			}
			last = at
		}
		if _, err := r.next(src, DefaultMaxFrame); !errors.Is(err, io.EOF) {
			t.Fatalf("odd=%v: after the last frame: %v, want EOF", odd, err)
		}
		if limit := 2 + 2*(len(stream)-big)/len(r.s.b); restarts > limit {
			t.Fatalf("odd=%v: buffer restarted %d times for %d small frames, want <= %d", odd, restarts, small, limit)
		}
	}
}
