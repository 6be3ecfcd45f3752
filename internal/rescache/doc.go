// Package rescache is a generation-stamped result cache for kernel
// calls: a repeated request — same tenant, same kernel, same input —
// is served from a stored copy of the output with zero kernel work.
//
// # Keying and generations
//
// An entry is keyed on (tenant, kernel, input fingerprint, tenant
// generation). The fingerprint hashes the kernel's declared input
// fields (Xs, K, Seed — see kernel.CacheSpec); kernels whose inputs
// include a function or a graph cannot be fingerprinted and are never
// cached. The generation is a per-tenant counter: Bump invalidates
// every entry the tenant has, in O(1) for correctness (the generation
// in the key no longer matches) plus an eager sweep that frees the
// memory immediately. A bumped generation can never be observed again,
// so stale hits are impossible by construction.
//
// # Tokens and concurrent invalidation
//
// Lookup is called before the kernel runs and, on a miss whose result
// may be stored, returns a Token capturing (fingerprint, generation)
// of the input at that instant — before the kernel mutates it in
// place. Insert re-checks under the cache lock that the tenant's
// generation still equals the token's; an insert racing a Bump is
// dropped, not stored. This is what makes the cache safe across
// sharded migration: a thief shard shares the same Cache, and any
// result computed against pre-bump input can never be inserted under
// the post-bump generation.
//
// # Admission
//
// While an input-sized entry still fits in the budget without
// evicting, every cacheable miss is stored, as a cache with room has
// nothing to protect. Once storing would evict, a result is stored on
// its input's second sighting, not its first (the doorkeeper of
// TinyLFU, and the cache-on-second-hit rule of CDN caches). Lookup
// first computes a sketch of the call — the kernel, length, K, Seed
// and at most 33 sampled words, so its cost does not grow with the
// input — and probes a fixed direct-mapped table of recently seen
// sketches. If no stored entry shares the sketch and the table does
// not hold it, the call is a first sighting: Lookup records the
// sketch, counts a miss and returns an invalid token without
// computing the full fingerprint, so a one-off request pays neither
// the O(n) hash nor the copy of its result. Every other cacheable call
// takes the full path, and a per-sketch count of stored entries keeps
// an input with an entry probed however the table is overwritten. A
// hit still needs the full fingerprint to match: the sketch only ever
// decides to skip work, never to serve a result. A table collision
// only delays one admission, and inputs that share a sketch but differ
// elsewhere pay the full path plus the sketch.
//
// # Memory
//
// Entry buffers come from a scratch.Pool and the cache is bounded by
// MaxBytes with LRU eviction, so it borrows the serving runtime's
// size-class recycling instead of growing the heap without bound.
package rescache
