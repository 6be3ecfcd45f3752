// Package scratch is the worker-local scratch-arena subsystem: a
// size-class-pooled allocator for the short-lived buffers every kernel
// layer needs on its steady-state path (scan partials, pack counts and
// offsets, per-worker histograms, sample-sort buckets, mergesort double
// buffers, radix count arrays, graph frontiers).
//
// Motivation. The executor runtime (internal/exec) removed the
// goroutine-spawn cost from every parallel call, but the kernels still
// allocated fresh scratch on every invocation, so under heavy
// concurrent traffic the hot path is GC-bound rather than
// compute-bound. The paper's methodology separates the abstract
// algorithm from its mapping to machine resources; memory reuse across
// calls is the missing half of that mapping. scratch supplies it: a
// buffer is requested with Get, used, and returned with Put, after
// which the next request of a similar size reuses the same backing
// memory instead of growing the heap.
//
// Mechanics. Backing memory is pooled in power-of-two size classes
// (64 B up to 64 MiB) as raw pointer-free slabs; Get[T] carves a typed
// slice out of a slab, so one pool serves every element type. A pool
// keeps one free list per class, at most 64 slabs each and
// 256 MiB across all of them, and its parked arenas, all under one
// mutex held for a few list operations. A slab Put back anywhere is
// the next Get of its class anywhere: reuse does not depend on the
// goroutine or the stack depth of either call. Element types that
// contain pointers — or requests beyond the largest class — bypass the
// pool and fall back to the ordinary allocator, so Get is always
// correct and only POD buffers are reused.
//
// Ownership. A Get'ed buffer is exclusively owned until Put. Every
// slab carries a generation stamp that is advanced on Put, before the
// pool's lock is taken; a Handle captures the stamp at Get time, so a
// double Put or a Put after the owning Arena released the buffer
// panics instead of silently corrupting a reused buffer.
//
// Buffers are returned with whatever contents the previous user left
// (like C malloc); use GetZeroed/MakeZeroed when the algorithm reads
// before it writes.
//
// Layering: scratch sits directly above the allocator and below
// everything else: exec.RunArena stages per-slot arenas from it,
// par/psort/psel/plist/pgraph draw kernel temporaries, and serve's
// requests inherit it through their Options. The repro facade exposes
// it as NewScratchPool/ScratchOff.
package scratch
