// Package wire is the network front door: a length-prefixed binary
// frame codec plus a Listener that serves framed requests over TCP or
// Unix sockets onto any serve.Front (usually a serve.Sharded),
// and a Client that speaks the same frames from the other end and is
// itself a serve.Front — so the typed serve.Sort...BFS helpers, and
// anything else written against the interface, run unchanged on either
// side of the socket.
//
// The codec is built for the read path to be zero-copy: a request
// frame is read into a connection-owned slab drawn from
// internal/scratch — one read when the socket already holds the whole
// frame, since the length prefix comes from the same read as the body —
// and the decoder aliases the payload sections directly as kernel.Args
// slices (unsafe casts of the 8-aligned slab, the same trick scratch
// itself uses to carve typed buffers from pooled byte slabs). The
// kernel then runs in place on the slab; no per-request copy or
// allocation happens between the socket and the batch slot. Frames
// that arrived together are decoded where they lie; the slab is reused
// for the next frame — bytes read past this one moved over it when the
// next would not fit behind them — only after the response has been
// written, so aliasing is safe by construction: one reader goroutine
// per connection serializes read → decode → call → respond, and
// concurrency comes from many connections, exactly like the
// double-buffered serving loops this layer is modeled on.
//
// Frame metadata carries an optional per-request deadline budget.
// The listener stamps it into the admission path via CallBudget, so
// the serve deadline ladder — door refusal on predicted wait, queue
// expiry at batch formation, stamps riding migration to thief shards
// — works end-to-end from a remote client. Budget-less frames inherit
// the server's configured SLO.
//
// The write path copies no payload either: every frame is laid out
// once as parts — headers, scalars and other computed bytes in a small
// pooled per-connection slab, slice payloads by reference to the Args —
// and sent with one vectored write; the Append* functions are the flat
// form of the same layout. Large replies (a long-route sort's output, say)
// are streamed as chunked frames instead of one reply frame: raw
// payload chunks at increasing offsets, then a closing frame carrying
// the scalars and the section geometry, all in the same one write. The
// client reassembles them into the same bytes a one-shot reply would
// have carried.
//
// The decoder never panics on hostile input: every length, offset and
// count is bounds-checked, and malformed frames fail loudly with the
// typed errors (ErrBadMagic, ErrTruncated, ErrFrameTooLarge, ...).
// Frames use native byte order (that is what makes the in-place cast
// legal) and carry an order sentinel so a cross-endian peer is
// rejected with ErrBadOrder instead of silently misread.
package wire
