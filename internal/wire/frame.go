package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"sync"
	"time"
	"unsafe"

	"repro/internal/graph"
	"repro/internal/kernel"
	"repro/internal/scratch"
)

// Wire format. Every frame is a u32 length prefix (body bytes,
// excluding the prefix itself) followed by the body:
//
//	off  size  field
//	0    1     magic (0x9D)
//	1    1     version (1)
//	2    1     frame type (request/response/chunk/end/error)
//	3    1     flags (bit0 delta, bit1 canonical bucket)
//	4    2     byte-order sentinel (0x0A0B as a native-order u16)
//	6    2     reserved
//	8    8     id (client-chosen; responses echo it)
//	16   8     aux (request: deadline budget in ns; chunk: payload
//	           byte offset; error: remote error code)
//	24   8     reserved
//
// A request body continues with the kernel name and tenant name (each
// a u8 length plus bytes), padded to an 8-byte boundary, then payload
// sections. A response body goes straight to sections. Each section
// is an 8-byte header — u8 tag, u8 flags (bit0: payload streamed in
// separate chunk frames), u16 reserved, u32 element count — followed
// by the payload padded to 8 bytes. Section payloads therefore always
// start 8-aligned relative to the body, which is what lets the
// decoder cast them in place.
//
// Everything is native byte order: the zero-copy cast requires it,
// and the sentinel turns a cross-endian peer into a loud ErrBadOrder
// instead of garbage lengths.
const (
	frameMagic    = 0x9D
	frameVersion  = 1
	orderSentinel = 0x0A0B

	headerSize     = 32
	sectionHdrSize = 8

	// DefaultMaxFrame bounds a single frame's body. It matches the
	// largest scratch size class, so a frame up to 8 bytes short of it
	// (the listener's slab also holds the length prefix, at offset 4)
	// still decodes in place from one pooled slab.
	DefaultMaxFrame = 64 << 20

	// maxGraphNodes caps the node count a graph section may declare.
	maxGraphNodes = 4 << 20
)

// Frame types.
const (
	frameRequest  = 1
	frameResponse = 2
	frameChunk    = 3 // raw payload bytes of a streamed section
	frameEnd      = 4 // closes a streamed response: scalars + geometry
	frameError    = 5
)

// Header flag bits.
const (
	flagDelta  = 1 << 0 // request carries delta sections (CallDeltaBudget)
	flagBucket = 1 << 1 // install the canonical histogram bucket
)

// Section flag bits.
const secFlagStreamed = 1 << 0

// Section tags.
const (
	secXs          = 1 // []int64
	secDst         = 2 // []int64
	secHist        = 3 // []int (64-bit on the wire)
	secDist        = 4 // []int32
	secGraph       = 5 // u32 n, u32 reserved, then count (u32,u32) edges
	secScalars     = 6 // K, Src, Out (int64) and Seed (uint64)
	secDeltaAppend = 7 // []int64
	secDeltaEdges  = 8 // count (u32,u32) edges
)

// Remote error codes carried in an error frame's aux field. Codes
// 1..3 map back to the serve sentinels on the client so errors.Is
// works across the socket; everything else arrives as code 4 plus
// the error text.
const (
	codeRejected = 1
	codeDeadline = 2
	codeClosed   = 3
	codeOther    = 4
)

// Typed decode errors. The decoder returns these (wrapped with
// context) instead of panicking, whatever bytes arrive.
var (
	ErrBadMagic      = errors.New("wire: bad magic byte")
	ErrBadVersion    = errors.New("wire: unsupported protocol version")
	ErrBadOrder      = errors.New("wire: byte-order sentinel mismatch (cross-endian peer)")
	ErrFrameTooLarge = errors.New("wire: frame length exceeds limit")
	ErrTruncated     = errors.New("wire: truncated frame")
	ErrBadFrame      = errors.New("wire: malformed frame")
)

var nativeOrder = binary.NativeEndian

// align8 rounds n up to the next multiple of 8.
func align8(n int) int { return (n + 7) &^ 7 }

// aligned8 reports whether the slice's backing array starts on an
// 8-byte boundary — true for every scratch slab and every Go heap
// allocation of at least pointer size, but checked anyway because the
// in-place casts are only legal when it holds.
func aligned8(b []byte) bool {
	if len(b) == 0 {
		return true
	}
	return uintptr(unsafe.Pointer(unsafe.SliceData(b)))%8 == 0
}

// element is what a slice section carries. An int travels as a 64-bit
// word and is cast like an int64: the module builds only where int is
// 64 bits.
type element interface{ int64 | int | int32 }

// bytesOf views a slice's elements as the native-order bytes a section
// carries, without copying.
func bytesOf[T element](xs []T) []byte {
	var z T
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(xs))), len(xs)*int(unsafe.Sizeof(z)))
}

// view reinterprets an 8-aligned payload as count elements in place;
// a misaligned payload (impossible for slab-backed bodies, possible for
// ad-hoc callers) is copied.
func view[T element](payload []byte, count int) []T {
	if count == 0 {
		return []T{}
	}
	if !aligned8(payload) {
		return copyInto[T](nil, payload, count)
	}
	return unsafe.Slice((*T)(unsafe.Pointer(unsafe.SliceData(payload))), count)
}

// copyInto copies count native-order elements from payload into dst,
// reusing dst's storage when it fits.
func copyInto[T element](dst []T, payload []byte, count int) []T {
	if cap(dst) < count {
		dst = make([]T, count)
	}
	dst = dst[:count]
	copy(bytesOf(dst), payload)
	return dst
}

// elemSize is the payload width of one counted element of a section
// with the given tag (a graph section adds an 8-byte prologue), or 0
// for a tag the protocol does not know.
func elemSize(tag byte) int {
	switch tag {
	case secDist:
		return 4
	case secXs, secDst, secHist, secGraph, secScalars, secDeltaAppend, secDeltaEdges:
		return 8
	}
	return 0
}

// CanonicalBucket returns the histogram bucket function the wire
// protocol transports: value mod bucket-count over the unsigned
// reinterpretation. Arbitrary closures cannot cross a socket, so a
// frame with a Hist section sets the bucket flag and the server
// installs this function; clients whose bucket is power-of-two modular
// (the generator's &0xFF over 256 buckets, the demo's %1024 over 1024)
// get identical histograms.
func CanonicalBucket(buckets int) func(int64) int {
	bucketMu.RLock()
	f := bucketFns[buckets]
	bucketMu.RUnlock()
	if f != nil {
		return f
	}
	bucketMu.Lock()
	defer bucketMu.Unlock()
	if f := bucketFns[buckets]; f != nil {
		return f
	}
	f = func(v int64) int { return int(uint64(v) % uint64(buckets)) }
	bucketFns[buckets] = f
	return f
}

// bucketFns caches canonical bucket closures by bucket count, keeping
// the warm histogram decode path allocation-free (a fresh closure per
// frame would be one heap object per request, and a sync.Map would
// box the int key on every lookup).
var (
	bucketMu  sync.RWMutex
	bucketFns = map[int]func(int64) int{}
)

// --- encoding ---------------------------------------------------------

// ensure grows buf to length n (reallocating only when capacity is
// short, so warm per-connection buffers stay allocation-free).
func ensure(buf []byte, n int) []byte {
	if cap(buf) < n {
		nb := make([]byte, n, max(n, 2*cap(buf)))
		copy(nb, buf)
		return nb
	}
	return buf[:n]
}

func putHeader(b []byte, typ, flags byte, id, aux uint64) {
	b[0] = frameMagic
	b[1] = frameVersion
	b[2] = typ
	b[3] = flags
	nativeOrder.PutUint16(b[4:6], orderSentinel)
	nativeOrder.PutUint16(b[6:8], 0)
	nativeOrder.PutUint64(b[8:16], id)
	nativeOrder.PutUint64(b[16:24], aux)
	nativeOrder.PutUint64(b[24:32], 0)
}

// sectionSize is the on-wire size of one section with payload bytes.
func sectionSize(payload int) int { return sectionHdrSize + align8(payload) }

// putSectionHdr writes a section header at b[off:] and returns the
// offset of the payload.
func putSectionHdr(b []byte, off int, tag, flags byte, count int) int {
	b[off] = tag
	b[off+1] = flags
	nativeOrder.PutUint16(b[off+2:off+4], 0)
	nativeOrder.PutUint32(b[off+4:off+8], uint32(count))
	return off + sectionHdrSize
}

// graphPayload is the byte size of a graph section body.
func graphPayload(m int) int { return 8 + 8*m }

// putEdge writes the edge (u, v) as two u32s at b[off:] and returns
// the offset after it.
func putEdge(b []byte, off, u, v int) int {
	nativeOrder.PutUint32(b[off:], uint32(u))
	nativeOrder.PutUint32(b[off+4:], uint32(v))
	return off + 8
}

// putGraph serializes g (unweighted topology only) as n plus its edge
// list, walked straight off the CSR; weights do not cross the wire.
func putGraph(b []byte, off int, g *graph.Graph) {
	nativeOrder.PutUint32(b[off:], uint32(g.N()))
	nativeOrder.PutUint32(b[off+4:], 0)
	off += 8
	g.ForEdges(func(u, v int, _ float64) { off = putEdge(b, off, u, v) })
}

func putEdges(b []byte, off int, edges []graph.Edge) {
	for _, e := range edges {
		off = putEdge(b, off, e.U, e.V)
	}
}

func putScalars(b []byte, off int, a *kernel.Args) int {
	nativeOrder.PutUint64(b[off:], uint64(int64(a.K)))
	nativeOrder.PutUint64(b[off+8:], uint64(int64(a.Src)))
	nativeOrder.PutUint64(b[off+16:], uint64(a.Out))
	nativeOrder.PutUint64(b[off+24:], a.Seed)
	return off + 32
}

// frameWriter lays frames out as a run of parts. The bytes the codec
// computes — length prefixes, headers, names, section headers, padding,
// scalars, and the graph and edge sections, which are converted — are
// written into its slab b; slice payloads are referenced from the
// caller's Args. One layout has two outputs. A flat writer copies each
// referenced payload into b straight after the bytes before it, which
// is what the Append* functions return. A vectored writer lists the
// slab runs and the references in vec, in order, and writeTo sends them
// with one vectored write, so a payload goes from the Args to the socket
// without a copy in between.
//
// Neither kind grows b while laying a frame out: reset is handed a
// buffer with room for every computed byte of the frames to come (the
// listed runs alias it), and flatWriter sizes b for the whole frame.
type frameWriter struct {
	b    []byte
	vec  net.Buffers // vectored: the parts listed so far
	out  net.Buffers // vectored: what WriteTo consumes; a field so it never escapes per call
	mark int         // vectored: start of the slab bytes not yet listed
	flat bool
}

// flatWriter returns a writer appending one frame of body bytes
// (prefix excluded) onto buf.
func flatWriter(buf []byte, body int) frameWriter {
	base := len(buf)
	return frameWriter{b: ensure(buf, base+4+body)[:base], flat: true}
}

// reset starts a vectored writer on buf, whose capacity covers every
// computed byte of the frames about to be laid out.
func (w *frameWriter) reset(buf []byte) {
	w.b, w.vec, w.mark = buf[:0], w.vec[:0], 0
}

// put extends the slab by n bytes and returns them for the caller to
// fill.
func (w *frameWriter) put(n int) []byte {
	off := len(w.b)
	w.b = w.b[:off+n]
	return w.b[off:]
}

// ref adds p to the frame by reference (vectored) or by copy (flat).
func (w *frameWriter) ref(p []byte) {
	switch {
	case len(p) == 0:
	case w.flat:
		w.b = append(w.b, p...)
	default:
		w.cut()
		w.vec = append(w.vec, p)
	}
}

// cut lists the slab bytes put since the last cut as one part.
func (w *frameWriter) cut() {
	if len(w.b) > w.mark {
		w.vec = append(w.vec, w.b[w.mark:len(w.b):len(w.b)])
		w.mark = len(w.b)
	}
}

// writeTo sends every listed part with one vectored write (writev on
// TCP and Unix sockets; one Write per part on other connections). The
// write drops each part's reference as it goes out.
func (w *frameWriter) writeTo(c io.Writer) error {
	w.cut()
	w.out = w.vec
	_, err := w.out.WriteTo(c)
	if err != nil {
		clear(w.vec) // what was not sent: drop the references to the caller's Args
	}
	return err
}

// head puts a frame's length prefix and fixed header.
func (w *frameWriter) head(body int, typ, flags byte, id, aux uint64) {
	b := w.put(4 + headerSize)
	nativeOrder.PutUint32(b, uint32(body))
	putHeader(b[4:], typ, flags, id, aux)
}

// section lays out one slice section: the header, the payload by
// reference, then zero padding to the next 8-byte boundary.
func (w *frameWriter) section(tag byte, count int, payload []byte) {
	putSectionHdr(w.put(sectionHdrSize), 0, tag, 0, count)
	w.ref(payload)
	if pad := align8(len(payload)) - len(payload); pad > 0 {
		clear(w.put(pad))
	}
}

// scalars lays out the scalar section every request and response ends
// its slice sections with.
func (w *frameWriter) scalars(a *kernel.Args) {
	b := w.put(sectionSize(32))
	putScalars(b, putSectionHdr(b, 0, secScalars, 0, 4), a)
}

// requestSize returns a request frame's body size for (k, a, d), and
// how many of those bytes are slice payloads a frame writer references
// rather than computes.
func requestSize(kname, tenant string, a *kernel.Args, d *kernel.Delta) (body, refs int) {
	body = headerSize + align8(2+len(kname)+len(tenant))
	slice := func(n int) {
		body += sectionSize(n)
		refs += n
	}
	if a.Xs != nil {
		slice(8 * len(a.Xs))
	}
	if a.Dst != nil {
		slice(8 * len(a.Dst))
	}
	if a.Hist != nil {
		slice(8 * len(a.Hist))
	}
	if a.Dist != nil {
		slice(4 * len(a.Dist))
	}
	if a.G != nil {
		body += sectionSize(graphPayload(a.G.M()))
	}
	body += sectionSize(32) // scalars, always present
	if d != nil {
		if d.Append != nil {
			slice(8 * len(d.Append))
		}
		if d.Edges != nil {
			body += sectionSize(8 * len(d.Edges))
		}
	}
	return body, refs
}

// checkRequest refuses what a request frame cannot carry.
func checkRequest(tenant string, k *kernel.Kernel) error {
	if k == nil {
		return fmt.Errorf("%w: nil kernel", ErrBadFrame)
	}
	if len(k.Name) > 255 || len(k.Name) == 0 {
		return fmt.Errorf("%w: kernel name length %d", ErrBadFrame, len(k.Name))
	}
	if len(tenant) > 255 {
		return fmt.Errorf("%w: tenant name length %d", ErrBadFrame, len(tenant))
	}
	return nil
}

// request lays out one request frame of the given body size (from
// requestSize) for a request checkRequest accepted.
func (w *frameWriter) request(body int, id uint64, tenant string, k *kernel.Kernel, a *kernel.Args, d *kernel.Delta, budget time.Duration) {
	flags := byte(0)
	if d != nil {
		flags |= flagDelta
	}
	if a.Hist != nil {
		// The bucket function cannot cross the wire; the flag tells the
		// server to install CanonicalBucket(len(Hist)) instead.
		flags |= flagBucket
	}
	w.head(body, frameRequest, flags, id, uint64(max(budget, 0)))
	names := w.put(align8(2 + len(k.Name) + len(tenant)))
	names[0] = byte(len(k.Name))
	off := 1 + copy(names[1:], k.Name)
	names[off] = byte(len(tenant))
	off += 1 + copy(names[off+1:], tenant)
	clear(names[off:])
	if a.Xs != nil {
		w.section(secXs, len(a.Xs), bytesOf(a.Xs))
	}
	if a.Dst != nil {
		w.section(secDst, len(a.Dst), bytesOf(a.Dst))
	}
	if a.Hist != nil {
		w.section(secHist, len(a.Hist), bytesOf(a.Hist))
	}
	if a.Dist != nil {
		w.section(secDist, len(a.Dist), bytesOf(a.Dist))
	}
	if a.G != nil {
		m := a.G.M()
		b := w.put(sectionSize(graphPayload(m)))
		putGraph(b, putSectionHdr(b, 0, secGraph, 0, m), a.G)
	}
	w.scalars(a)
	if d != nil {
		if d.Append != nil {
			w.section(secDeltaAppend, len(d.Append), bytesOf(d.Append))
		}
		if d.Edges != nil {
			b := w.put(sectionSize(8 * len(d.Edges)))
			putEdges(b, putSectionHdr(b, 0, secDeltaEdges, 0, len(d.Edges)), d.Edges)
		}
	}
}

// AppendRequest encodes one request frame — length prefix included —
// onto buf and returns the extended slice. A nil d encodes a plain
// Call; a non-nil d sets the delta flag and appends the delta
// sections. budget (0 for none) rides the aux field as nanoseconds.
// The id is chosen by the caller and echoed by every response frame.
// It is the flat form of the frame Client writes vectored.
func AppendRequest(buf []byte, id uint64, tenant string, k *kernel.Kernel, a *kernel.Args, d *kernel.Delta, budget time.Duration) ([]byte, error) {
	if err := checkRequest(tenant, k); err != nil {
		return buf, err
	}
	body, _ := requestSize(k.Name, tenant, a, d)
	w := flatWriter(buf, body)
	w.request(body, id, tenant, k, a, d, budget)
	return w.b, nil
}

// respPlan names the slice section a response carries: its tag (0 for
// none), element count and payload bytes, which alias the Args. The
// kernel's Out declares it; scalars always travel.
type respPlan struct {
	tag   byte
	count int
	raw   []byte
}

func planResponse(k *kernel.Kernel, a *kernel.Args) respPlan {
	switch k.Out {
	case kernel.OutXs:
		return respPlan{secXs, len(a.Xs), bytesOf(a.Xs)}
	case kernel.OutDst:
		return respPlan{secDst, len(a.Dst), bytesOf(a.Dst)}
	case kernel.OutHist:
		return respPlan{secHist, len(a.Hist), bytesOf(a.Hist)}
	case kernel.OutDist:
		return respPlan{secDist, len(a.Dist), bytesOf(a.Dist)}
	}
	return respPlan{} // OutScalar
}

// responseBody is the body size of the one-shot response for p.
func responseBody(p respPlan) int {
	body := headerSize + sectionSize(32)
	if p.tag != 0 {
		body += sectionSize(len(p.raw))
	}
	return body
}

// response lays out a one-shot response frame: the planned output
// section plus the scalar section.
func (w *frameWriter) response(id uint64, p respPlan, a *kernel.Args) {
	w.head(responseBody(p), frameResponse, 0, id, 0)
	if p.tag != 0 {
		w.section(p.tag, p.count, p.raw)
	}
	w.scalars(a)
}

// AppendResponse encodes a one-shot response frame for a finished
// request: the kernel's output section plus the scalar section. It is
// the flat form of the frame Listener writes vectored.
func AppendResponse(buf []byte, id uint64, k *kernel.Kernel, a *kernel.Args) []byte {
	p := planResponse(k, a)
	w := flatWriter(buf, responseBody(p))
	w.response(id, p, a)
	return w.b
}

// streamEndBody is the body size of a stream's closing frame.
const streamEndBody = headerSize + sectionHdrSize + sectionHdrSize + 32

// streamEnd lays out the closing frame of a streamed response: the
// output section's header with the streamed flag (geometry, no payload
// — the payload traveled in chunk frames) plus the scalars.
func (w *frameWriter) streamEnd(id uint64, p respPlan, count int, a *kernel.Args) {
	w.head(streamEndBody, frameEnd, 0, id, 0)
	putSectionHdr(w.put(sectionHdrSize), 0, p.tag, secFlagStreamed, count)
	w.scalars(a)
}

// AppendStreamEnd encodes the closing frame of a streamed response.
func AppendStreamEnd(buf []byte, id uint64, p respPlan, count int, a *kernel.Args) []byte {
	w := flatWriter(buf, streamEndBody)
	w.streamEnd(id, p, count, a)
	return w.b
}

// chunk lays out one streamed-payload chunk: raw section bytes at byte
// offset off within the section payload.
func (w *frameWriter) chunk(id uint64, off int, chunk []byte) {
	w.head(headerSize+len(chunk), frameChunk, 0, id, uint64(off))
	w.ref(chunk)
}

// AppendChunk encodes one streamed-payload chunk frame.
func AppendChunk(buf []byte, id uint64, off int, chunk []byte) []byte {
	w := flatWriter(buf, headerSize+len(chunk))
	w.chunk(id, off, chunk)
	return w.b
}

// errorFrame lays out an error frame: the serve sentinels travel as
// codes (so errors.Is works on the far side), everything else as code
// 4 plus the error text.
func (w *frameWriter) errorFrame(id uint64, code int, msg string) {
	w.head(headerSize+len(msg), frameError, 0, id, uint64(code))
	copy(w.put(len(msg)), msg)
}

// AppendError encodes an error frame.
func AppendError(buf []byte, id uint64, code int, msg string) []byte {
	w := flatWriter(buf, headerSize+len(msg))
	w.errorFrame(id, code, msg)
	return w.b
}

// --- decoding ---------------------------------------------------------

// Header is the decoded fixed-size frame header.
type Header struct {
	Type  byte
	Flags byte
	ID    uint64
	Aux   uint64
}

// DecodeHeader validates the fixed header of a frame body.
func DecodeHeader(body []byte) (Header, error) {
	if len(body) < headerSize {
		return Header{}, fmt.Errorf("%w: %d-byte body", ErrTruncated, len(body))
	}
	if body[0] != frameMagic {
		return Header{}, fmt.Errorf("%w: 0x%02x", ErrBadMagic, body[0])
	}
	if body[1] != frameVersion {
		return Header{}, fmt.Errorf("%w: %d", ErrBadVersion, body[1])
	}
	if s := nativeOrder.Uint16(body[4:6]); s != orderSentinel {
		return Header{}, fmt.Errorf("%w: 0x%04x", ErrBadOrder, s)
	}
	h := Header{
		Type:  body[2],
		Flags: body[3],
		ID:    nativeOrder.Uint64(body[8:16]),
		Aux:   nativeOrder.Uint64(body[16:24]),
	}
	if h.Type < frameRequest || h.Type > frameError {
		return Header{}, fmt.Errorf("%w: frame type %d", ErrBadFrame, h.Type)
	}
	return h, nil
}

// section is one decoded section: its tag, flags, element count and
// payload bytes (aliasing the frame body).
type section struct {
	tag, flags byte
	count      int
	payload    []byte
}

// nextSection decodes the section at body[off:], returning it and the
// offset of the following section. Every size is bounds-checked; a
// count whose payload would overflow the body (or an int) is rejected.
func nextSection(body []byte, off int) (section, int, error) {
	if off+sectionHdrSize > len(body) {
		return section{}, 0, fmt.Errorf("%w: section header at %d", ErrTruncated, off)
	}
	s := section{
		tag:   body[off],
		flags: body[off+1],
		count: int(nativeOrder.Uint32(body[off+4 : off+8])),
	}
	off += sectionHdrSize
	elem := elemSize(s.tag)
	if elem == 0 {
		return section{}, 0, fmt.Errorf("%w: section tag %d", ErrBadFrame, s.tag)
	}
	if s.tag == secScalars && s.count != 4 {
		return section{}, 0, fmt.Errorf("%w: scalar count %d", ErrBadFrame, s.count)
	}
	if s.count < 0 || s.count > math.MaxInt32 {
		return section{}, 0, fmt.Errorf("%w: section count %d", ErrBadFrame, s.count)
	}
	payload := 0
	if s.flags&secFlagStreamed == 0 {
		if s.count > (len(body)-off)/elem {
			return section{}, 0, fmt.Errorf("%w: section %d needs %d elems past end", ErrTruncated, s.tag, s.count)
		}
		payload = elem * s.count
		if s.tag == secGraph {
			payload += 8
			if off+payload > len(body) {
				return section{}, 0, fmt.Errorf("%w: graph section", ErrTruncated)
			}
		}
		s.payload = body[off : off+payload]
	}
	next := off + align8(payload)
	if next > len(body) {
		// The final section's padding may be implicit; clamp rather
		// than reject a frame whose last payload ends at the body end.
		next = len(body)
	}
	return s, next, nil
}

// decodeGraph rebuilds the CSR graph from a graph section. This is
// the one decode that allocates: CSR construction is inherently a
// copy, and the kernels that take graphs allocate anyway.
func decodeGraph(payload []byte) (*graph.Graph, error) {
	n := int(nativeOrder.Uint32(payload[0:4]))
	if n > maxGraphNodes {
		// CSR construction allocates O(n) before it can validate a
		// single edge, so the node count is protocol-capped: a hostile
		// frame must not turn 4 header bytes into a gigabyte of deg[].
		return nil, fmt.Errorf("%w: graph n=%d exceeds %d", ErrBadFrame, n, maxGraphNodes)
	}
	g, err := graph.Build(n, decodeEdges(payload[8:]), false)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadFrame, err)
	}
	return g, nil
}

// decodeEdges reads an edge list of (u32, u32) pairs.
func decodeEdges(payload []byte) []graph.Edge {
	edges := make([]graph.Edge, len(payload)/8)
	for i := range edges {
		edges[i] = graph.Edge{
			U: int(nativeOrder.Uint32(payload[8*i:])),
			V: int(nativeOrder.Uint32(payload[8*i+4:])),
		}
	}
	return edges
}

func decodeScalars(payload []byte, a *kernel.Args) {
	a.K = int(int64(nativeOrder.Uint64(payload[0:8])))
	a.Src = int(int64(nativeOrder.Uint64(payload[8:16])))
	a.Out = int64(nativeOrder.Uint64(payload[16:24]))
	a.Seed = nativeOrder.Uint64(payload[24:32])
}

// Request is a decoded request frame. Its Args slices alias the frame
// body: they are valid until the caller reuses the underlying slab.
type Request struct {
	ID      uint64
	Kernel  *kernel.Kernel
	Tenant  string
	Budget  time.Duration
	Args    kernel.Args
	Delta   kernel.Delta
	IsDelta bool
}

// Decoder decodes request frames. It interns tenant names so the
// strings handed to the serving layer do not alias the reusable slab
// (the server retains tenant names in its accounting maps; slab bytes
// are rewritten by the next frame). The zero value is not ready; use
// NewDecoder.
type Decoder struct {
	tenants map[string]string
}

// NewDecoder returns a Decoder with an empty intern table.
func NewDecoder() *Decoder { return &Decoder{tenants: make(map[string]string)} }

// intern returns a stable string for the byte key, allocating only
// the first time a name is seen (map lookup with a converted []byte
// key does not allocate).
func (d *Decoder) intern(b []byte) string {
	if s, ok := d.tenants[string(b)]; ok {
		return s
	}
	s := string(b)
	d.tenants[s] = s
	return s
}

// DecodeRequest decodes a request frame body in place. The returned
// Request's slices alias body; the kernel must finish with them
// before body is reused. Arbitrary input never panics: malformed
// frames return a typed error — alongside a Request carrying only the
// ID when the header itself decoded, so the reply can name the request
// it refuses (ID 0 means the header was bad and no id is known).
func (d *Decoder) DecodeRequest(body []byte) (Request, error) {
	h, err := DecodeHeader(body)
	if err != nil {
		return Request{}, err
	}
	if h.Type != frameRequest {
		return Request{ID: h.ID}, fmt.Errorf("%w: frame type %d, want request", ErrBadFrame, h.Type)
	}
	if h.Aux > uint64(math.MaxInt64) {
		return Request{ID: h.ID}, fmt.Errorf("%w: deadline budget overflow", ErrBadFrame)
	}
	req := Request{ID: h.ID, Budget: time.Duration(h.Aux), IsDelta: h.Flags&flagDelta != 0}
	off := headerSize
	if off >= len(body) {
		return Request{ID: h.ID}, fmt.Errorf("%w: missing kernel name", ErrTruncated)
	}
	klen := int(body[off])
	off++
	if off+klen > len(body) {
		return Request{ID: h.ID}, fmt.Errorf("%w: kernel name", ErrTruncated)
	}
	kname := body[off : off+klen]
	off += klen
	if off >= len(body) {
		return Request{ID: h.ID}, fmt.Errorf("%w: missing tenant name", ErrTruncated)
	}
	tlen := int(body[off])
	off++
	if off+tlen > len(body) {
		return Request{ID: h.ID}, fmt.Errorf("%w: tenant name", ErrTruncated)
	}
	req.Tenant = d.intern(body[off : off+tlen])
	off = align8(off + tlen)
	req.Kernel = kernel.LookupBytes(kname)
	if req.Kernel == nil {
		return Request{ID: h.ID}, fmt.Errorf("%w: unknown kernel %q", ErrBadFrame, string(kname))
	}
	sawScalars := false
	for off < len(body) {
		s, next, err := nextSection(body, off)
		if err != nil {
			return Request{ID: h.ID}, err
		}
		if s.flags&secFlagStreamed != 0 {
			return Request{ID: h.ID}, fmt.Errorf("%w: streamed section in request", ErrBadFrame)
		}
		switch s.tag {
		case secXs:
			req.Args.Xs = view[int64](s.payload, s.count)
		case secDst:
			req.Args.Dst = view[int64](s.payload, s.count)
		case secHist:
			req.Args.Hist = view[int](s.payload, s.count)
		case secDist:
			req.Args.Dist = view[int32](s.payload, s.count)
		case secGraph:
			if req.Args.G, err = decodeGraph(s.payload); err != nil {
				return Request{ID: h.ID}, err
			}
		case secScalars:
			decodeScalars(s.payload, &req.Args)
			sawScalars = true
		case secDeltaAppend:
			req.Delta.Append = view[int64](s.payload, s.count)
		case secDeltaEdges:
			req.Delta.Edges = decodeEdges(s.payload)
		}
		off = next
	}
	if !sawScalars {
		return Request{ID: h.ID}, fmt.Errorf("%w: missing scalar section", ErrBadFrame)
	}
	if h.Flags&flagBucket != 0 && len(req.Args.Hist) > 0 {
		req.Args.Bucket = CanonicalBucket(len(req.Args.Hist))
	}
	if req.IsDelta && req.Delta.Append == nil && req.Delta.Edges == nil {
		return Request{ID: h.ID}, fmt.Errorf("%w: delta flag without delta sections", ErrBadFrame)
	}
	return req, nil
}

// DecodeResponseInto decodes a one-shot response body (frameResponse)
// into a, copying section payloads into a's slices — growing them
// only when the reply is larger than the caller's buffer (a delta
// append growing Xs, a kernel materializing Dist). Returns the header
// for id matching.
func DecodeResponseInto(body []byte, a *kernel.Args) (Header, error) {
	h, err := DecodeHeader(body)
	if err != nil {
		return h, err
	}
	if h.Type != frameResponse {
		return h, fmt.Errorf("%w: frame type %d, want response", ErrBadFrame, h.Type)
	}
	return h, decodeSectionsInto(body, headerSize, a, nil)
}

// decodeSectionsInto walks sections from off, merging into a. When
// streamed is non-nil, a section with the streamed flag takes its
// payload from streamed instead of the body.
func decodeSectionsInto(body []byte, off int, a *kernel.Args, streamed []byte) error {
	sawScalars := false
	for off < len(body) {
		s, next, err := nextSection(body, off)
		if err != nil {
			return err
		}
		payload := s.payload
		if s.flags&secFlagStreamed != 0 {
			if streamed == nil {
				return fmt.Errorf("%w: streamed section without chunks", ErrBadFrame)
			}
			elem := elemSize(s.tag)
			if s.count > len(streamed)/elem {
				return fmt.Errorf("%w: streamed payload %d bytes for %d elems", ErrTruncated, len(streamed), s.count)
			}
			payload = streamed[:elem*s.count]
		}
		switch s.tag {
		case secXs:
			a.Xs = copyInto(a.Xs, payload, s.count)
		case secDst:
			a.Dst = copyInto(a.Dst, payload, s.count)
		case secHist:
			a.Hist = copyInto(a.Hist, payload, s.count)
		case secDist:
			a.Dist = copyInto(a.Dist, payload, s.count)
		case secScalars:
			decodeScalars(payload, a)
			sawScalars = true
		default:
			return fmt.Errorf("%w: section tag %d in response", ErrBadFrame, s.tag)
		}
		off = next
	}
	if !sawScalars {
		return fmt.Errorf("%w: response missing scalar section", ErrBadFrame)
	}
	return nil
}

// DecodeError unpacks an error frame into the matching serve sentinel
// (wrapped, so errors.Is works) or a plain error from the carried
// text.
func DecodeError(h Header, body []byte) error {
	msg := ""
	if len(body) > headerSize {
		msg = string(body[headerSize:])
	}
	switch h.Aux {
	case codeRejected:
		return fmt.Errorf("wire: remote: %w", errRejected)
	case codeDeadline:
		return fmt.Errorf("wire: remote: %w", errDeadline)
	case codeClosed:
		return fmt.Errorf("wire: remote: %w", errClosed)
	}
	if msg == "" {
		msg = "unspecified remote error"
	}
	return fmt.Errorf("wire: remote: %s", msg)
}

// --- reading a stream of frames --------------------------------------

// frameLead is the unused head of a frameReader's buffer: a frame's
// length prefix sits at offset frameLead and its body right after, at
// offset 8, so the body is 8-aligned for the decoder's in-place casts.
const frameLead = 4

// frameReader reads length-prefixed frames off a connection with as
// few reads as the socket allows: each read asks for all the room the
// buffer has, the length prefix is taken from what arrived, and another
// read happens only while the frame is incomplete. Bytes that arrived
// past a frame stay where they are, and the next frame is decoded
// where it lies, so a run of pipelined frames does not move the unread
// tail once per frame. The unread bytes move to the front only when the
// next frame would not fit behind them, which moves less than that
// frame's size; and that happens in the next call to next, when the
// caller is done with the frame it was handed (the kernel has run on it
// and the reply has been written from it), so a body never moves under
// a live alias.
//
// Bodies are decoded in place, so each must start 8-aligned: its
// prefix must sit at frameLead mod 8. A frame takes 4 bytes more than
// its body, and valid bodies are multiples of 8 long, so in a run of
// frames every other one lands 4 bytes off that grid (a malformed body
// can shift it by any amount). Such a frame is moved back onto the grid,
// over the spent frame before it: a copy of that frame alone.
//
// The buffer is grown when the first length prefix has been read, so a
// connection that never sends a frame holds none.
type frameReader struct {
	s    slab
	lenb [4]byte // the first prefix, read before the buffer exists
	off  int     // where the next frame's length prefix starts
	end  int     // end of the bytes read
}

// next returns the next frame's body. It aliases the reader's buffer
// and is valid until next is called again. A read failure comes back
// wrapped as "wire: read", a length prefix outside [headerSize,
// maxFrame] as ErrFrameTooLarge.
func (r *frameReader) next(c io.Reader, maxFrame int) ([]byte, error) {
	if r.s.b == nil {
		if _, err := io.ReadFull(c, r.lenb[:]); err != nil {
			return nil, fmt.Errorf("wire: read: %w", err)
		}
		n, err := frameLen(r.lenb[:], maxFrame)
		if err != nil {
			return nil, err
		}
		r.off = frameLead
		r.end = frameLead + copy(r.s.grow(frameLead+4+n, 0)[frameLead:], r.lenb[:])
	}
	if r.off == r.end {
		r.off, r.end = frameLead, frameLead // nothing left over: read from the front
	}
	if len(r.s.b)-r.off < 4 {
		r.compact()
	}
	if err := r.fill(c, r.off+4); err != nil {
		return nil, err
	}
	n, err := frameLen(r.s.b[r.off:], maxFrame)
	if err != nil {
		return nil, err
	}
	if r.off+4+n > len(r.s.b) {
		r.compact()
		r.s.grow(frameLead+4+n, r.end)
	}
	if err := r.fill(c, r.off+4+n); err != nil {
		return nil, err
	}
	at := r.off
	r.off += 4 + n
	if d := (at - frameLead) % 8; d != 0 {
		at -= d
		copy(r.s.b[at:], r.s.b[at+d:r.off])
	}
	return r.s.b[at+4 : at+4+n : at+4+n], nil
}

// compact moves the unread bytes to the front of the buffer.
func (r *frameReader) compact() {
	r.end = frameLead + copy(r.s.b[frameLead:], r.s.b[r.off:r.end])
	r.off = frameLead
}

// frameLen reads and bounds a length prefix.
func frameLen(prefix []byte, maxFrame int) (int, error) {
	n := int(nativeOrder.Uint32(prefix))
	if n < headerSize || n > maxFrame {
		return 0, fmt.Errorf("%w: frame length %d", ErrFrameTooLarge, n)
	}
	return n, nil
}

// fill reads until the buffer holds want bytes, each read asking for
// all the room there is.
func (r *frameReader) fill(c io.Reader, want int) error {
	for r.end < want {
		n, err := c.Read(r.s.b[r.end:])
		r.end += n
		if err != nil && r.end < want {
			return fmt.Errorf("wire: read: %w", err)
		}
	}
	return nil
}

// slab is a connection's growable byte buffer, drawn from a scratch
// pool, or from the heap when pool is nil (the client's: no Close could
// return them to a pool while a call may be using them).
type slab struct {
	pool *scratch.Pool
	b    []byte // at full capacity; nil until first grown
	h    scratch.Handle
}

// grow makes b hold at least need bytes and returns it, carrying
// b[:keep] over when it has to swap to a larger buffer.
func (s *slab) grow(need, keep int) []byte {
	if cap(s.b) < need {
		var nb []byte
		var nh scratch.Handle
		if s.pool != nil {
			nb, nh = scratch.Get[byte](s.pool, need)
		} else {
			nb = make([]byte, max(need, 2*cap(s.b)))
		}
		nb = nb[:cap(nb)]
		copy(nb, s.b[:keep])
		s.release()
		s.b, s.h = nb, nh
	}
	return s.b
}

// release returns a pooled buffer; the slab is empty after.
func (s *slab) release() {
	if s.pool != nil && s.b != nil {
		scratch.Put(s.h)
	}
	s.b = nil
}
