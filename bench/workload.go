package main

import (
	"sort"
	"time"

	"repro/internal/kernel"
)

// entry is one generated input of a workload's pool. Requests are
// built from it by copying (and, in the no-repeat workloads, rotating)
// in.Xs into a caller-owned buffer, so the entry itself is read-only
// for the whole run.
type entry struct {
	k      *kernel.Kernel
	in     *kernel.Args
	tenant string // fixed tenant; "" means drawn per request
	long   bool   // wire_bulk's pipeline-routed class
}

// workload is one traffic mix. The why strings are BENCHMARK.json's.
type workload struct {
	name string
	// embed drives serve.Sharded.CallBudget in-process instead of
	// parserve over TCP.
	embed bool
	// callers is the closed-loop caller count, each with a connection
	// of its own on the wire workloads; 0 means min(nproc, 4).
	callers int
	budget  time.Duration
	// zipf makes requests repeat pool inputs with Zipf(1.0) popularity;
	// otherwise every request is a distinct (input, rotation) pair.
	zipf bool
	// hotNum of every hotDen tenant draws land on tenant "hot".
	hotNum, hotDen uint64
	pool           func(base uint64, lookup func(string) *kernel.Kernel) []entry
}

var tenants = []string{"hot", "t1", "t2", "t3", "t4", "t5", "t6", "t7"}

// mixedPool builds count inputs of n elements cycling through names.
// The j-th input of a kernel gets the j-th Gen seed from base, which
// walks sort through its distribution and key-width rotation evenly
// whatever the benchmark seed. Seeds with seed%4 == 2 are skipped:
// sort's Gen answers them with the reversed ramp n..1 whatever the
// seed, and two pool inputs that are equal would make equal requests.
func mixedPool(names []string, count, n int) func(uint64, func(string) *kernel.Kernel) []entry {
	return func(base uint64, lookup func(string) *kernel.Kernel) []entry {
		pool := make([]entry, count)
		for i := range pool {
			k := lookup(names[i%len(names)])
			j := uint64(i / len(names))
			pool[i] = entry{k: k, in: k.Gen(n, base+4*(j/3)+[3]uint64{0, 1, 3}[j%3])}
		}
		return pool
	}
}

const (
	bulkShortN = 1 << 16 // 512 KiB, below serve.DefaultPipelineCutoff
	bulkLongN  = 1 << 18 // 2 MiB: pipeline route in, 32 chunk frames out
)

// bulkPool is four rounds of (narrow sort, wide sort, scan, long
// sort). Sort's Gen picks distribution and key width from seed%4, so
// the seeds pin each class to one shape — with 16 inputs a free draw
// would make the workload's cost depend on the benchmark seed.
func bulkPool(base uint64, lookup func(string) *kernel.Kernel) []entry {
	sortK, scanK := lookup("sort"), lookup("scan")
	var pool []entry
	for j := uint64(0); j < 4; j++ {
		pool = append(pool,
			entry{k: sortK, in: sortK.Gen(bulkShortN, base+4*j+1)}, // nearly sorted, 16-bit keys
			entry{k: sortK, in: sortK.Gen(bulkShortN, base+4*j)},   // uniform, wide keys
			entry{k: scanK, in: scanK.Gen(bulkShortN, base+j)},
			entry{k: sortK, in: sortK.Gen(bulkLongN, base+4*j+16), long: true},
		)
	}
	return pool
}

var cacheable = []string{"sort", "select", "scan", "sum", "topk"}

// busyCallers is the caller count of the two small-request wire
// workloads: enough closed loops that neither processor of the
// reference box goes idle between requests. With one caller per
// processor a third of the window was idle time, every idle-to-busy
// transition is a HLT exit whose latency the hypervisor sets, and the
// same build read 17k, 24k and 34k req/s depending on the host's mood;
// saturated, the metrics follow the program's CPU cost per request.
const busyCallers = 16

var workloads = []workload{
	{
		name:    "wire_small_uniq",
		callers: busyCallers,
		hotNum:  1, hotDen: 2,
		pool: mixedPool([]string{"sort", "select", "histogram", "scan", "sum", "topk"}, 4096, 1024),
	},
	{
		name:    "wire_repeat_hot",
		callers: busyCallers,
		zipf:    true,
		hotNum:  1, hotDen: 2,
		pool: mixedPool(cacheable, 256, 4096),
	},
	{
		name:   "wire_bulk",
		hotNum: 1, hotDen: 2,
		pool: bulkPool,
	},
	{
		name:    "embed_skew",
		embed:   true,
		callers: 64,
		budget:  250 * time.Millisecond,
		hotNum:  6, hotDen: 8,
		pool: mixedPool(cacheable, 320, 8192),
	},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// mix64 is splitmix64's finalizer; every per-request draw is a pure
// function of (seed, request number, salt) through it, so the request
// sequence does not depend on which caller picks a request up.
func mix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

func gcd(a, b uint64) uint64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// enumerator walks (entry, rotation) pairs without repeating one:
// request t takes entry t mod entries, and within an entry successive
// visits step through the rotations 1..rots by a stride coprime to
// rots from a per-entry offset. Rotation 0 is left to the warm-up
// pass. The walk is a bijection on t < entries*rots; past that it
// wraps.
type enumerator struct {
	entries, rots, stride uint64
	offset                []uint64
}

func newEnumerator(entries, rots int, seed uint64) enumerator {
	en := enumerator{entries: uint64(entries), rots: uint64(rots), offset: make([]uint64, entries)}
	en.stride = 1 + mix64(seed)%en.rots
	for gcd(en.stride, en.rots) != 1 {
		en.stride++
	}
	for e := range en.offset {
		en.offset[e] = mix64(seed+uint64(e)+1) % en.rots
	}
	return en
}

func (en *enumerator) at(t uint64) (entry, rot int) {
	e := t % en.entries
	visit := t / en.entries % en.rots
	return int(e), 1 + int((en.stride*visit+en.offset[e])%en.rots)
}

// plan is a workload bound to a seed: the input pool plus the pure
// function from request number to (entry, rotation, tenant, verify).
type plan struct {
	w    *workload
	seed uint64
	pool []entry
	enum enumerator
	// cdf is the cumulative Zipf(1.0) weight of pool ranks (zipf
	// workloads): rank r has weight 1/(r+1).
	cdf []float64
	// maxXs, maxDst and maxHist size the callers' buffers.
	maxXs, maxDst, maxHist int
}

func newPlan(w *workload, seed uint64, lookup func(string) *kernel.Kernel) *plan {
	// Aligned to 4 so the seed%4 shapes bulkPool asks for are the
	// shapes it gets, and small because select's Gen derives its rank
	// from int(seed).
	base := mix64(seed) % (1 << 30) &^ 3
	p := &plan{w: w, seed: seed, pool: w.pool(base, lookup)}
	minXs := len(p.pool[0].in.Xs)
	for i := range p.pool {
		in := p.pool[i].in
		minXs = min(minXs, len(in.Xs))
		p.maxXs = max(p.maxXs, len(in.Xs))
		p.maxDst = max(p.maxDst, len(in.Dst))
		p.maxHist = max(p.maxHist, len(in.Hist))
	}
	if w.zipf {
		p.cdf = make([]float64, len(p.pool))
		var sum float64
		for r := range p.cdf {
			sum += 1 / float64(r+1)
			p.cdf[r] = sum
		}
		// A repeated request must repeat its cache key, so the tenant
		// is part of the input, not a per-request draw.
		for i := range p.pool {
			p.pool[i].tenant = p.tenant(uint64(i))
		}
	} else {
		p.enum = newEnumerator(len(p.pool), minXs-1, seed)
	}
	return p
}

// tenantOf is the tenant of request t for pool entry e: the entry's
// own when it has one, else request t's draw.
func (p *plan) tenantOf(e *entry, t uint64) string {
	if e.tenant != "" {
		return e.tenant
	}
	return p.tenant(t)
}

func (p *plan) tenant(t uint64) string {
	h := mix64(p.seed ^ mix64(2*t+1))
	if h%p.w.hotDen < p.w.hotNum {
		return "hot"
	}
	return tenants[1+(h>>32)%uint64(len(tenants)-1)]
}

// verifyEvery is the share of timed responses checked against the
// serial oracle.
const verifyEvery = 64

// request maps request number t to its pool entry, rotation, tenant
// and whether its response is verified.
func (p *plan) request(t uint64) (e *entry, rot int, tenant string, verify bool) {
	var i int
	if p.w.zipf {
		u := float64(mix64(p.seed^mix64(2*t))>>11) / (1 << 53) * p.cdf[len(p.cdf)-1]
		i = min(sort.SearchFloat64s(p.cdf, u), len(p.pool)-1)
	} else {
		i, rot = p.enum.at(t)
	}
	e = &p.pool[i]
	return e, rot, p.tenantOf(e, t), mix64(p.seed+mix64(t))%verifyEvery == 0
}
