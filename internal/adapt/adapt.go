package adapt

import (
	"fmt"
	"math"
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/machine"
	"repro/internal/rng"
)

// Kind classifies the shape of parallel loop a site tunes, which
// selects its candidate lattice.
type Kind uint8

const (
	// KindRange tunes a scheduled loop (par.ForRange / par.For):
	// candidates are (grain, policy) pairs plus the serial fallback.
	KindRange Kind = iota
	// KindWorkers tunes a blocked fork/join kernel (par.ForWorkers
	// callers such as scan, pack, histogram, the sorts): candidates are
	// worker-count shares of the requested parallelism plus serial.
	KindWorkers
	// KindVariant selects among whole algorithm variants of one kernel
	// (sample sort vs radix sort vs counting sort): candidates are the
	// variants themselves, declared per site with NewVariantSite, and
	// the class index is a caller-supplied input feature (key width,
	// size bucket) instead of the length's size class. Variant sites
	// are consulted through DecideVariant, not Decide — algorithm
	// choice is orthogonal to parallelism, so it applies even at p=1.
	KindVariant
)

// Site names one adaptive call site. Sites are cheap, immutable
// identities; the per-controller state they key lives in the
// controller's cache. Declare one per kernel call site as a package
// variable, or let par derive one from the program counter.
type Site struct {
	name     string
	kind     Kind
	id       uint32
	variants int // candidate count of a KindVariant site; 0 otherwise
}

// siteIDs allocates process-global site identities so any controller
// can index its cache by them.
var siteIDs atomic.Uint32

// NewSite declares an adaptive call site with a stable name (used in
// stats and tests) and lattice kind.
func NewSite(name string, kind Kind) *Site {
	return &Site{name: name, kind: kind, id: siteIDs.Add(1) - 1}
}

// PC-derived sites are process-global: a program counter is a global
// identity, so two controllers observing the same loop share the Site
// (but not the learned state, which is per-controller).
var (
	pcMu    sync.RWMutex
	pcSites = map[uintptr]*Site{}
)

// SiteForPC returns the (KindRange) site for a loop identified by its
// caller's program counter, creating it on first sight. The read path
// is lock-shared and allocation-free, so it is safe on kernel fast
// paths.
func SiteForPC(pc uintptr) *Site {
	pcMu.RLock()
	s := pcSites[pc]
	pcMu.RUnlock()
	if s != nil {
		return s
	}
	pcMu.Lock()
	defer pcMu.Unlock()
	if s = pcSites[pc]; s == nil {
		name := fmt.Sprintf("pc:%#x", pc)
		if fn := runtime.FuncForPC(pc); fn != nil {
			file, line := fn.FileLine(pc)
			_ = file
			name = fmt.Sprintf("%s:%d", fn.Name(), line)
		}
		s = NewSite(name, KindRange)
		pcSites[pc] = s
	}
	return s
}

// Decision is the controller's answer for one call: either run serial,
// or run parallel with the given worker count and (for KindRange
// sites) grain and schedule policy.
type Decision struct {
	// Serial requests the sequential path (Procs is 1).
	Serial bool
	// Procs is the worker count to run with.
	Procs int
	// Grain is the chunk/leaf size to use; 0 means leave the caller's
	// configured grain untouched (KindWorkers lattices do not tune it).
	Grain int
	// Policy is the schedule, as an index into par.Policies order
	// (0 static, 1 cyclic, 2 dynamic, 3 guided); -1 means leave the
	// caller's configured policy untouched.
	Policy int
	// Explore marks an exploration pick (a non-greedy candidate).
	Explore bool
	// Degraded marks a load-shedding decision (high executor
	// occupancy); degraded calls are not measured.
	Degraded bool
}

// Token links a measured call back to the (site, size-class, candidate)
// it must credit. The zero Token is inert: converged and degraded
// decisions return it, and Record ignores it.
type Token struct {
	cs   *classState
	cand int32
}

// Valid reports whether the decision wants a timing fed back through
// Record.
func (t Token) Valid() bool { return t.cs != nil }

// Config tunes a Controller. The zero value selects the defaults
// documented on each field.
type Config struct {
	// Epsilon is the initial exploration probability after the first
	// full sweep of the lattice; it decays linearly to zero at
	// ConvergeAfter recorded calls. Default 0.2. Set it to 1 (with a
	// huge ConvergeAfter) to explore forever, which is what the
	// differential tests do to exercise mid-exploration behavior.
	Epsilon float64
	// ConvergeAfter is the number of recorded calls per
	// (site, size-class) after which the class switches to pure
	// exploitation (no more exploration, no more timing). Default 48.
	ConvergeAfter int
	// HighLoad is the executor occupancy at or above which decisions
	// degrade toward serial instead of consulting the lattice.
	// Default 0.75.
	HighLoad float64
	// Seed makes exploration reproducible. Default 1.
	Seed uint64
}

func (c Config) epsilon() float64 {
	if c.Epsilon > 0 {
		return c.Epsilon
	}
	return 0.2
}

func (c Config) convergeAfter() int {
	if c.ConvergeAfter > 0 {
		return c.ConvergeAfter
	}
	return 48
}

func (c Config) highLoad() float64 {
	if c.HighLoad > 0 {
		return c.HighLoad
	}
	return 0.75
}

func (c Config) seed() uint64 {
	if c.Seed != 0 {
		return c.Seed
	}
	return 1
}

// maxSizeClass bounds the size-class index (bits.Len of the length).
const maxSizeClass = 63

// sizeClass buckets n into its power-of-two magnitude.
func sizeClass(n int) int {
	c := bits.Len(uint(n))
	if c > maxSizeClass {
		c = maxSizeClass
	}
	return c
}

// siteEntry is one site's per-controller cache row: a lazily filled
// slot per size class.
type siteEntry struct {
	classes [maxSizeClass + 1]atomic.Pointer[classState]
}

// classState is the learned state of one (site, size-class): the
// per-candidate cost estimates and the exploration bookkeeping.
type classState struct {
	kind Kind

	mu     sync.Mutex
	rnd    *rng.Rand
	picks  int32     // decisions handed out (sweep + epsilon schedule)
	visits int32     // measurements recorded (drives convergence)
	ewma   []float64 // estimated seconds per element, per candidate
	trials []int32   // recorded measurements per candidate
	// active lists the candidate indices distinct at this class's
	// creation-time p (duplicate worker shares collapse); inactive
	// slots hold +Inf estimates so they can never win the argmin.
	active []int32

	bestIdx   atomic.Int32
	converged atomic.Bool
	// measured has bit i set once candidate i (i < 64) has a recorded
	// measurement, readable without mu.
	measured atomic.Uint64
}

// Controller owns one adaptive tuning cache. It is safe for concurrent
// use by any number of goroutines; the converged read path is
// lock-free and allocation-free.
type Controller struct {
	cfg   Config
	prior atomic.Pointer[Prior]

	mu      sync.Mutex // guards entries growth
	entries atomic.Pointer[[]*siteEntry]

	sites        atomic.Int64
	classes      atomic.Int64
	decisions    atomic.Int64
	explorations atomic.Int64
	degraded     atomic.Int64
	converged    atomic.Int64
}

// New creates a controller with the given configuration.
func New(cfg Config) *Controller {
	c := &Controller{cfg: cfg}
	p := defaultPrior()
	c.prior.Store(&p)
	return c
}

var (
	defaultOnce sync.Once
	defaultCtl  *Controller
)

// Default returns the process-wide shared controller that
// par.Options.Adaptive users get from repro.Adaptive() and
// cmd/parbench -adapt=on.
func Default() *Controller {
	defaultOnce.Do(func() { defaultCtl = New(Config{}) })
	return defaultCtl
}

// Prior is the cost-model seed mapping abstract machine parameters to
// wall-clock guesses: secPerOp for one element of work, secPerWord for
// one word moved, secPerBarrier for one fork/join or superstep
// barrier. It plays the role core.Calibration plays offline.
type Prior struct {
	SecPerOp      float64
	SecPerWord    float64
	SecPerBarrier float64
}

// defaultPrior is a deliberately rough modern-CPU guess; it only
// shapes the first few decisions, after which measurements take over.
func defaultPrior() Prior {
	return Prior{SecPerOp: 1e-9, SecPerWord: 5e-10, SecPerBarrier: 2e-6}
}

// SetPrior replaces the cost-model seed with a fitted one: secPerOp
// from a calibration's A coefficient and the communication/barrier
// terms from the BSP parameters it implies (core.Calibration.BSPParams
// produces exactly this pair). Classes created before SetPrior keep
// their old seeds; measured feedback erases the difference either way.
func (c *Controller) SetPrior(secPerOp float64, bsp machine.BSPParams) {
	if secPerOp <= 0 {
		return
	}
	p := Prior{
		SecPerOp:      secPerOp,
		SecPerWord:    bsp.G * secPerOp,
		SecPerBarrier: bsp.L * secPerOp,
	}
	if p.SecPerWord <= 0 {
		p.SecPerWord = defaultPrior().SecPerWord
	}
	if p.SecPerBarrier <= 0 {
		p.SecPerBarrier = defaultPrior().SecPerBarrier
	}
	c.prior.Store(&p)
}

// Stats is a snapshot of a controller's counters.
type Stats struct {
	// Sites is the number of distinct call sites seen.
	Sites int64
	// Classes is the number of (site, size-class) cache entries.
	Classes int64
	// Decisions counts all Decide calls.
	Decisions int64
	// Explorations counts non-greedy candidate picks (including the
	// initial deterministic sweep).
	Explorations int64
	// Degraded counts load-shedding decisions.
	Degraded int64
	// Converged is the number of classes in pure exploitation.
	Converged int64
}

// Stats returns a snapshot of the controller's counters.
func (c *Controller) Stats() Stats {
	return Stats{
		Sites:        c.sites.Load(),
		Classes:      c.classes.Load(),
		Decisions:    c.decisions.Load(),
		Explorations: c.explorations.Load(),
		Degraded:     c.degraded.Load(),
		Converged:    c.converged.Load(),
	}
}

// Decide picks the parameters for one call of n elements at site,
// requested with p workers, under the given executor occupancy. It
// returns the decision and, when the call should be timed, a Token to
// pass to Record with the measured duration. n and p must be >= 1.
func (c *Controller) Decide(site *Site, n, p int, load float64) (Decision, Token) {
	c.decisions.Add(1)
	cs := c.class(site, n, p)
	if load >= c.cfg.highLoad() {
		c.degraded.Add(1)
		return c.degrade(site.kind, n, p, load), Token{}
	}
	if cs.converged.Load() {
		return candidateDecision(site.kind, int(cs.bestIdx.Load()), n, p), Token{}
	}
	cs.mu.Lock()
	idx, explore := cs.pick(c.cfg)
	cs.mu.Unlock()
	if explore {
		c.explorations.Add(1)
	}
	d := candidateDecision(site.kind, idx, n, p)
	d.Explore = explore
	return d, Token{cs: cs, cand: int32(idx)}
}

// pick chooses a candidate index under cs.mu: first one deterministic
// sweep through the active lattice, then epsilon-greedy with a
// linearly decaying epsilon.
func (cs *classState) pick(cfg Config) (idx int, explore bool) {
	k := len(cs.active)
	v := int(cs.picks)
	cs.picks++
	if v < k {
		return int(cs.active[v]), true
	}
	eps := cfg.epsilon() * (1 - float64(v)/float64(cfg.convergeAfter()))
	if eps > 0 && cs.rnd.Float64() < eps {
		return int(cs.active[cs.rnd.Intn(k)]), true
	}
	return int(cs.bestIdx.Load()), false
}

// ewmaAlpha weights a new measurement against the running estimate.
const ewmaAlpha = 0.3

// Record feeds the measured wall-clock seconds of a call of n elements
// back into the candidate the token names. Zero tokens (converged or
// degraded decisions) and degenerate measurements are ignored.
func (c *Controller) Record(tok Token, seconds float64, n int) {
	cs := tok.cs
	if cs == nil || n <= 0 || seconds <= 0 {
		return
	}
	perElem := seconds / float64(n)
	cs.mu.Lock()
	i := tok.cand
	cs.trials[i]++
	if i < 64 {
		cs.measured.Or(1 << i)
	}
	if cs.trials[i] == 1 {
		// First real measurement replaces the model's guess outright.
		cs.ewma[i] = perElem
	} else {
		cs.ewma[i] += ewmaAlpha * (perElem - cs.ewma[i])
	}
	best := 0
	for j := 1; j < len(cs.ewma); j++ {
		if cs.ewma[j] < cs.ewma[best] {
			best = j
		}
	}
	cs.bestIdx.Store(int32(best))
	cs.visits++
	if int(cs.visits) >= c.cfg.convergeAfter() && !cs.converged.Load() {
		cs.converged.Store(true)
		c.converged.Add(1)
	}
	cs.mu.Unlock()
}

// Converged reports whether the (site, size-class) for inputs of
// length n has reached pure exploitation (for tests and callers that
// want to pre-warm).
func (c *Controller) Converged(site *Site, n int) bool {
	es := c.entries.Load()
	if es == nil || int(site.id) >= len(*es) {
		return false
	}
	e := (*es)[site.id]
	if e == nil {
		return false
	}
	cs := e.classes[sizeClass(n)].Load()
	return cs != nil && cs.converged.Load()
}

// Visits returns the number of measurements recorded for the
// (site, size-class) of inputs of length n — 0 when the class has
// never been seen. It is the introspection hook the reentrancy-guard
// and convergence tests use to assert exactly which sites learned
// from a call.
func (c *Controller) Visits(site *Site, n int) int {
	es := c.entries.Load()
	if es == nil || int(site.id) >= len(*es) {
		return 0
	}
	e := (*es)[site.id]
	if e == nil {
		return 0
	}
	cs := e.classes[sizeClass(n)].Load()
	if cs == nil {
		return 0
	}
	cs.mu.Lock()
	v := int(cs.visits)
	cs.mu.Unlock()
	return v
}

// Best returns the converged (or current best) decision for inputs of
// length n at site with p requested workers, without counting as a
// decision; ok is false when the class has never been seen.
func (c *Controller) Best(site *Site, n, p int) (Decision, bool) {
	es := c.entries.Load()
	if es == nil || int(site.id) >= len(*es) {
		return Decision{}, false
	}
	e := (*es)[site.id]
	if e == nil {
		return Decision{}, false
	}
	cs := e.classes[sizeClass(n)].Load()
	if cs == nil {
		return Decision{}, false
	}
	return candidateDecision(site.kind, int(cs.bestIdx.Load()), n, p), true
}

// class returns the (site, size-class) state, creating it on first
// sight.
func (c *Controller) class(site *Site, n, p int) *classState {
	return c.classAt(site, sizeClass(n), n, p)
}

// classAt returns the (site, class) state for an explicit class index,
// creating it on first sight. The hit path is two atomic loads and two
// bounds checks.
func (c *Controller) classAt(site *Site, sc, n, p int) *classState {
	if es := c.entries.Load(); es != nil && int(site.id) < len(*es) {
		if e := (*es)[site.id]; e != nil {
			if cs := e.classes[sc].Load(); cs != nil {
				return cs
			}
		}
	}
	return c.makeClass(site, sc, n, p)
}

func (c *Controller) makeClass(site *Site, sc, n, p int) *classState {
	c.mu.Lock()
	defer c.mu.Unlock()
	var cur []*siteEntry
	if es := c.entries.Load(); es != nil {
		cur = *es
	}
	var e *siteEntry
	if int(site.id) < len(cur) {
		e = cur[site.id]
	}
	if e == nil {
		// Publish a fresh slice rather than writing the shared one in
		// place: class() reads the published slice lock-free, so an
		// element must never change after its slice is visible.
		grown := make([]*siteEntry, max(len(cur), int(site.id)+1))
		copy(grown, cur)
		e = &siteEntry{}
		grown[site.id] = e
		c.entries.Store(&grown)
		c.sites.Add(1)
	}
	if cs := e.classes[sc].Load(); cs != nil {
		return cs
	}
	cs := c.newClassState(site, sc, n, p)
	e.classes[sc].Store(cs)
	c.classes.Add(1)
	return cs
}

// newClassState seeds a class's candidate estimates from the machine
// model prior at the class's representative size.
func (c *Controller) newClassState(site *Site, sc, n, p int) *classState {
	k := site.latticeSize()
	cs := &classState{
		kind:   site.kind,
		rnd:    rng.New(c.cfg.seed() ^ uint64(site.id)*0x9E3779B97F4A7C15 ^ uint64(sc)<<32),
		ewma:   make([]float64, k),
		trials: make([]int32, k),
		active: site.activeCandidates(p),
	}
	pr := *c.prior.Load()
	rep := classRep(sc)
	for i := range cs.ewma {
		cs.ewma[i] = math.Inf(1)
	}
	best := int(cs.active[0])
	for _, i := range cs.active {
		cs.ewma[i] = pr.predict(site.kind, int(i), rep, p)
		if cs.ewma[i] < cs.ewma[best] {
			best = int(i)
		}
	}
	cs.bestIdx.Store(int32(best))
	return cs
}

// classRep is the representative length of a size class (its geometric
// midpoint), used to evaluate the prior.
func classRep(sc int) int {
	if sc <= 1 {
		return 1
	}
	return 3 << (sc - 2) // 1.5 * 2^(sc-1)
}

// degrade is the load-shedding rule: shrink the worker count in
// proportion to the occupancy overshoot above HighLoad, pin the widest
// grain and the cheapest schedule, and fall back to serial entirely
// once the pool is saturated. Degraded decisions carry no token: a
// timing taken on a busy pool measures the load, not the candidate.
func (c *Controller) degrade(kind Kind, n, p int, load float64) Decision {
	hl := c.cfg.highLoad()
	excess := (load - hl) / (1 - hl)
	if excess > 1 {
		excess = 1
	}
	eff := int(float64(p) * (1 - excess))
	if eff <= 1 {
		return Decision{Serial: true, Procs: 1, Policy: -1, Degraded: true}
	}
	d := Decision{Procs: eff, Policy: -1, Degraded: true}
	if kind == KindRange {
		d.Grain = rangeGrains[len(rangeGrains)-1]
		d.Policy = policyStatic
	}
	return d
}
