package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"strconv"
	"sync"
	"time"
	"unsafe"

	"repro/internal/graph"
	"repro/internal/kernel"
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
	// largest scratch size class, so a maximal frame still decodes in
	// place from one pooled slab.
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

// strconv64 gates the []int in-place casts: they are only
// size-correct where int is 64-bit (everywhere this repo targets; the
// copy fallback keeps 32-bit correct if slower).
const strconv64 = strconv.IntSize == 64

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

// putInt64s copies xs into b at off (which must be 8-aligned) and
// returns the next 8-aligned offset.
func putInt64s(b []byte, off int, xs []int64) int {
	n := copy(b[off:], unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(xs))), 8*len(xs)))
	return off + align8(n)
}

func putInts(b []byte, off int, xs []int) int {
	if strconv.IntSize == 64 {
		n := copy(b[off:], unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(xs))), 8*len(xs)))
		return off + align8(n)
	}
	for _, v := range xs {
		nativeOrder.PutUint64(b[off:], uint64(int64(v)))
		off += 8
	}
	return off
}

func putInt32s(b []byte, off int, xs []int32) int {
	n := copy(b[off:], unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(xs))), 4*len(xs)))
	return off + align8(n)
}

// graphPayload is the byte size of a graph section body.
func graphPayload(m int) int { return 8 + 8*m }

// putGraph serializes g (unweighted topology only) as n plus its edge
// list; weights do not cross the wire.
func putGraph(b []byte, off int, g *graph.Graph) int {
	nativeOrder.PutUint32(b[off:], uint32(g.N()))
	nativeOrder.PutUint32(b[off+4:], 0)
	off += 8
	for _, e := range g.Edges() {
		nativeOrder.PutUint32(b[off:], uint32(e.U))
		nativeOrder.PutUint32(b[off+4:], uint32(e.V))
		off += 8
	}
	return off
}

func putEdges(b []byte, off int, edges []graph.Edge) int {
	for _, e := range edges {
		nativeOrder.PutUint32(b[off:], uint32(e.U))
		nativeOrder.PutUint32(b[off+4:], uint32(e.V))
		off += 8
	}
	return off
}

func putScalars(b []byte, off int, a *kernel.Args) int {
	nativeOrder.PutUint64(b[off:], uint64(int64(a.K)))
	nativeOrder.PutUint64(b[off+8:], uint64(int64(a.Src)))
	nativeOrder.PutUint64(b[off+16:], uint64(a.Out))
	nativeOrder.PutUint64(b[off+24:], a.Seed)
	return off + 32
}

// requestSize is the body size of a request frame for (k, a, d).
func requestSize(kname, tenant string, a *kernel.Args, d *kernel.Delta) int {
	n := headerSize + align8(2+len(kname)+len(tenant))
	if a.Xs != nil {
		n += sectionSize(8 * len(a.Xs))
	}
	if a.Dst != nil {
		n += sectionSize(8 * len(a.Dst))
	}
	if a.Hist != nil {
		n += sectionSize(8 * len(a.Hist))
	}
	if a.Dist != nil {
		n += sectionSize(4 * len(a.Dist))
	}
	if a.G != nil {
		n += sectionSize(graphPayload(a.G.M()))
	}
	n += sectionSize(32) // scalars, always present
	if d != nil {
		if d.Append != nil {
			n += sectionSize(8 * len(d.Append))
		}
		if d.Edges != nil {
			n += sectionSize(8 * len(d.Edges))
		}
	}
	return n
}

// AppendRequest encodes one request frame — length prefix included —
// onto buf and returns the extended slice. A nil d encodes a plain
// Call; a non-nil d sets the delta flag and appends the delta
// sections. budget (0 for none) rides the aux field as nanoseconds.
// The id is chosen by the caller and echoed by every response frame.
func AppendRequest(buf []byte, id uint64, tenant string, k *kernel.Kernel, a *kernel.Args, d *kernel.Delta, budget time.Duration) ([]byte, error) {
	if k == nil {
		return buf, fmt.Errorf("%w: nil kernel", ErrBadFrame)
	}
	if len(k.Name) > 255 || len(k.Name) == 0 {
		return buf, fmt.Errorf("%w: kernel name length %d", ErrBadFrame, len(k.Name))
	}
	if len(tenant) > 255 {
		return buf, fmt.Errorf("%w: tenant name length %d", ErrBadFrame, len(tenant))
	}
	if budget < 0 {
		budget = 0
	}
	body := requestSize(k.Name, tenant, a, d)
	base := len(buf)
	buf = ensure(buf, base+4+body)
	nativeOrder.PutUint32(buf[base:], uint32(body))
	b := buf[base+4:]
	flags := byte(0)
	if d != nil {
		flags |= flagDelta
	}
	if a.Hist != nil {
		// The bucket function cannot cross the wire; the flag tells the
		// server to install CanonicalBucket(len(Hist)) instead.
		flags |= flagBucket
	}
	putHeader(b, frameRequest, flags, id, uint64(budget))
	off := headerSize
	b[off] = byte(len(k.Name))
	off++
	off += copy(b[off:], k.Name)
	b[off] = byte(len(tenant))
	off++
	off += copy(b[off:], tenant)
	for off%8 != 0 {
		b[off] = 0
		off++
	}
	if a.Xs != nil {
		off = putSectionHdr(b, off, secXs, 0, len(a.Xs))
		off = putInt64s(b, off, a.Xs)
	}
	if a.Dst != nil {
		off = putSectionHdr(b, off, secDst, 0, len(a.Dst))
		off = putInt64s(b, off, a.Dst)
	}
	if a.Hist != nil {
		off = putSectionHdr(b, off, secHist, 0, len(a.Hist))
		off = putInts(b, off, a.Hist)
	}
	if a.Dist != nil {
		off = putSectionHdr(b, off, secDist, 0, len(a.Dist))
		off = putInt32s(b, off, a.Dist)
	}
	if a.G != nil {
		off = putSectionHdr(b, off, secGraph, 0, a.G.M())
		off = putGraph(b, off, a.G)
	}
	off = putSectionHdr(b, off, secScalars, 0, 4)
	off = putScalars(b, off, a)
	if d != nil {
		if d.Append != nil {
			off = putSectionHdr(b, off, secDeltaAppend, 0, len(d.Append))
			off = putInt64s(b, off, d.Append)
		}
		if d.Edges != nil {
			off = putSectionHdr(b, off, secDeltaEdges, 0, len(d.Edges))
			off = putEdges(b, off, d.Edges)
		}
	}
	if off != body {
		return buf, fmt.Errorf("%w: encoded %d bytes, sized %d", ErrBadFrame, off, body)
	}
	return buf, nil
}

// respPlan names the slice section a response carries. The choice is
// kernel-driven: a CacheSpec's Out kind when the kernel has one (the
// cache already had to answer "what is this kernel's output"), else
// Hist for histogram-shaped records, Dist for graph kernels, Xs as
// the in-place default. Scalars always travel.
type respPlan struct {
	tag     byte
	payload int // payload bytes of the slice section (0 = scalars only)
}

func planResponse(k *kernel.Kernel, a *kernel.Args) respPlan {
	if k != nil && k.Cache != nil {
		switch k.Cache.Out {
		case kernel.OutXs:
			return respPlan{secXs, 8 * len(a.Xs)}
		case kernel.OutDst:
			return respPlan{secDst, 8 * len(a.Dst)}
		case kernel.OutScalar:
			return respPlan{0, 0}
		}
	}
	switch {
	case a.Hist != nil:
		return respPlan{secHist, 8 * len(a.Hist)}
	case a.Dist != nil:
		return respPlan{secDist, 4 * len(a.Dist)}
	case a.Dst != nil:
		return respPlan{secDst, 8 * len(a.Dst)}
	default:
		return respPlan{secXs, 8 * len(a.Xs)}
	}
}

func planCount(p respPlan, a *kernel.Args) int {
	switch p.tag {
	case secXs:
		return len(a.Xs)
	case secDst:
		return len(a.Dst)
	case secHist:
		return len(a.Hist)
	case secDist:
		return len(a.Dist)
	}
	return 0
}

// putPlanPayload writes the planned section's payload in place.
func putPlanPayload(b []byte, off int, p respPlan, a *kernel.Args) int {
	switch p.tag {
	case secXs:
		return putInt64s(b, off, a.Xs)
	case secDst:
		return putInt64s(b, off, a.Dst)
	case secHist:
		return putInts(b, off, a.Hist)
	case secDist:
		return putInt32s(b, off, a.Dist)
	}
	return off
}

// AppendResponse encodes a one-shot response frame for a finished
// request: the kernel's output section plus the scalar section.
func AppendResponse(buf []byte, id uint64, k *kernel.Kernel, a *kernel.Args) []byte {
	p := planResponse(k, a)
	body := headerSize + sectionSize(32)
	if p.tag != 0 {
		body += sectionSize(p.payload)
	}
	base := len(buf)
	buf = ensure(buf, base+4+body)
	nativeOrder.PutUint32(buf[base:], uint32(body))
	b := buf[base+4:]
	putHeader(b, frameResponse, 0, id, 0)
	off := headerSize
	if p.tag != 0 {
		off = putSectionHdr(b, off, p.tag, 0, planCount(p, a))
		off = putPlanPayload(b, off, p, a)
	}
	off = putSectionHdr(b, off, secScalars, 0, 4)
	putScalars(b, off, a)
	return buf
}

// AppendStreamEnd encodes the closing frame of a streamed response:
// the output section's header with the streamed flag (geometry, no
// payload — the payload traveled in chunk frames) plus the scalars.
func AppendStreamEnd(buf []byte, id uint64, p respPlan, count int, a *kernel.Args) []byte {
	body := headerSize + sectionSize(0) + sectionSize(32)
	base := len(buf)
	buf = ensure(buf, base+4+body)
	nativeOrder.PutUint32(buf[base:], uint32(body))
	b := buf[base+4:]
	putHeader(b, frameEnd, 0, id, 0)
	off := putSectionHdr(b, headerSize, p.tag, secFlagStreamed, count)
	off = putSectionHdr(b, off, secScalars, 0, 4)
	putScalars(b, off, a)
	return buf
}

// AppendChunk encodes one streamed-payload chunk: raw section bytes
// at byte offset off within the section payload.
func AppendChunk(buf []byte, id uint64, off int, chunk []byte) []byte {
	body := headerSize + len(chunk)
	base := len(buf)
	buf = ensure(buf, base+4+body)
	nativeOrder.PutUint32(buf[base:], uint32(body))
	b := buf[base+4:]
	putHeader(b, frameChunk, 0, id, uint64(off))
	copy(b[headerSize:], chunk)
	return buf
}

// AppendError encodes an error frame: the serve sentinels travel as
// codes (so errors.Is works on the far side), everything else as code
// 4 plus the error text.
func AppendError(buf []byte, id uint64, code int, msg string) []byte {
	body := headerSize + len(msg)
	base := len(buf)
	buf = ensure(buf, base+4+body)
	nativeOrder.PutUint32(buf[base:], uint32(body))
	b := buf[base+4:]
	putHeader(b, frameError, 0, id, uint64(code))
	copy(b[headerSize:], msg)
	return buf
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
	var elem int
	switch s.tag {
	case secXs, secDst, secHist, secDeltaAppend:
		elem = 8
	case secDist:
		elem = 4
	case secGraph:
		elem = 8 // per edge; plus an 8-byte (n, reserved) prologue
	case secDeltaEdges:
		elem = 8
	case secScalars:
		if s.count != 4 {
			return section{}, 0, fmt.Errorf("%w: scalar count %d", ErrBadFrame, s.count)
		}
		elem = 8
	default:
		return section{}, 0, fmt.Errorf("%w: section tag %d", ErrBadFrame, s.tag)
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

// asInt64s reinterprets an 8-aligned payload in place; misaligned
// payloads (impossible for slab-backed bodies, possible for ad-hoc
// callers) are copied.
func asInt64s(payload []byte, count int) []int64 {
	if count == 0 {
		return []int64{}
	}
	if aligned8(payload) {
		return unsafe.Slice((*int64)(unsafe.Pointer(unsafe.SliceData(payload))), count)
	}
	out := make([]int64, count)
	for i := range out {
		out[i] = int64(nativeOrder.Uint64(payload[8*i:]))
	}
	return out
}

func asInts(payload []byte, count int) []int {
	if count == 0 {
		return []int{}
	}
	if strconv.IntSize == 64 && aligned8(payload) {
		return unsafe.Slice((*int)(unsafe.Pointer(unsafe.SliceData(payload))), count)
	}
	out := make([]int, count)
	for i := range out {
		out[i] = int(int64(nativeOrder.Uint64(payload[8*i:])))
	}
	return out
}

func asInt32s(payload []byte, count int) []int32 {
	if count == 0 {
		return []int32{}
	}
	if aligned8(payload) {
		return unsafe.Slice((*int32)(unsafe.Pointer(unsafe.SliceData(payload))), count)
	}
	out := make([]int32, count)
	for i := range out {
		out[i] = int32(nativeOrder.Uint32(payload[4*i:]))
	}
	return out
}

// decodeGraph rebuilds the CSR graph from a graph section. This is
// the one decode that allocates: CSR construction is inherently a
// copy, and the kernels that take graphs allocate anyway.
func decodeGraph(payload []byte) (*graph.Graph, error) {
	n := int(nativeOrder.Uint32(payload[0:4]))
	m := (len(payload) - 8) / 8
	if n < 0 || n > maxGraphNodes {
		// CSR construction allocates O(n) before it can validate a
		// single edge, so the node count is protocol-capped: a hostile
		// frame must not turn 4 header bytes into a gigabyte of deg[].
		return nil, fmt.Errorf("%w: graph n=%d exceeds %d", ErrBadFrame, n, maxGraphNodes)
	}
	edges := make([]graph.Edge, m)
	for i := range edges {
		edges[i] = graph.Edge{
			U: int(nativeOrder.Uint32(payload[8+8*i:])),
			V: int(nativeOrder.Uint32(payload[12+8*i:])),
		}
	}
	g, err := graph.Build(n, edges, false)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadFrame, err)
	}
	return g, nil
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
			req.Args.Xs = asInt64s(s.payload, s.count)
		case secDst:
			req.Args.Dst = asInt64s(s.payload, s.count)
		case secHist:
			req.Args.Hist = asInts(s.payload, s.count)
		case secDist:
			req.Args.Dist = asInt32s(s.payload, s.count)
		case secGraph:
			if req.Args.G, err = decodeGraph(s.payload); err != nil {
				return Request{ID: h.ID}, err
			}
		case secScalars:
			decodeScalars(s.payload, &req.Args)
			sawScalars = true
		case secDeltaAppend:
			req.Delta.Append = asInt64s(s.payload, s.count)
		case secDeltaEdges:
			edges := make([]graph.Edge, s.count)
			for i := range edges {
				edges[i] = graph.Edge{
					U: int(nativeOrder.Uint32(s.payload[8*i:])),
					V: int(nativeOrder.Uint32(s.payload[8*i+4:])),
				}
			}
			req.Delta.Edges = edges
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
			var elem int
			switch s.tag {
			case secDist:
				elem = 4
			default:
				elem = 8
			}
			if s.count > len(streamed)/elem {
				return fmt.Errorf("%w: streamed payload %d bytes for %d elems", ErrTruncated, len(streamed), s.count)
			}
			payload = streamed[:elem*s.count]
		}
		switch s.tag {
		case secXs:
			a.Xs = copyInt64s(a.Xs, payload, s.count)
		case secDst:
			a.Dst = copyInt64s(a.Dst, payload, s.count)
		case secHist:
			a.Hist = copyInts(a.Hist, payload, s.count)
		case secDist:
			a.Dist = copyInt32s(a.Dist, payload, s.count)
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

// copyInt64s copies count native-order int64s from payload into dst,
// reusing dst's storage when it fits.
func copyInt64s(dst []int64, payload []byte, count int) []int64 {
	if cap(dst) < count {
		dst = make([]int64, count)
	}
	dst = dst[:count]
	if count == 0 {
		return dst
	}
	copy(unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(dst))), 8*count), payload)
	return dst
}

func copyInts(dst []int, payload []byte, count int) []int {
	if cap(dst) < count {
		dst = make([]int, count)
	}
	dst = dst[:count]
	for i := range dst {
		dst[i] = int(int64(nativeOrder.Uint64(payload[8*i:])))
	}
	return dst
}

func copyInt32s(dst []int32, payload []byte, count int) []int32 {
	if cap(dst) < count {
		dst = make([]int32, count)
	}
	dst = dst[:count]
	if count == 0 {
		return dst
	}
	copy(unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(dst))), 4*count), payload)
	return dst
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
