package adapt

import "fmt"

// Algorithm-variant sites: the lattice dimension the kernel registry
// adds on top of grain/policy/workers tuning. A variant site's
// candidates are whole algorithm implementations of one kernel
// (sample sort vs radix sort vs counting sort); its class index is a
// caller-supplied input feature (key width × size bucket) rather than
// the input length's size class, because which algorithm wins depends
// on the distribution of the data, not just its volume. Variant
// decisions are consulted even at p=1 — a counting sort beats a
// comparison sort on narrow keys with or without parallelism.

// NewVariantSite declares an adaptive site whose candidates are the
// variants of one kernel. variants must be >= 1; index 0 is the
// kernel's general-purpose default, the one a caller without a
// controller gets.
func NewVariantSite(name string, variants int) *Site {
	if variants < 1 {
		panic(fmt.Sprintf("adapt: NewVariantSite(%q, %d): need at least one variant", name, variants))
	}
	return &Site{name: name, kind: KindVariant, id: siteIDs.Add(1) - 1, variants: variants}
}

// clampClass bounds a caller-supplied feature class to the cache's
// class range.
func clampClass(class int) int {
	if class < 0 {
		return 0
	}
	if class > maxSizeClass {
		return maxSizeClass
	}
	return class
}

// DecideVariant picks which algorithm variant to run for one call at a
// variant site. class is the caller's input-feature index (clamped to
// [0, 63]); load is the executor occupancy. It returns the variant
// index and, when the call should be timed, a Token to pass to Record
// with the measured duration — the same sweep / epsilon-greedy / EWMA
// machinery Decide uses, applied to algorithms instead of schedules.
// Under high load it returns the current best untimed: a timing taken
// on a busy pool measures the load, not the algorithm.
func (c *Controller) DecideVariant(site *Site, class int, load float64) (int, Token) {
	c.decisions.Add(1)
	sc := clampClass(class)
	cs := c.classAt(site, sc, classRep(sc), 1)
	if load >= c.cfg.highLoad() {
		c.degraded.Add(1)
		return int(cs.bestIdx.Load()), Token{}
	}
	if cs.converged.Load() {
		return int(cs.bestIdx.Load()), Token{}
	}
	cs.mu.Lock()
	idx, explore := cs.pick(c.cfg)
	cs.mu.Unlock()
	if explore {
		c.explorations.Add(1)
	}
	return idx, Token{cs: cs, cand: int32(idx)}
}

// BestVariant returns the current best variant index for a feature
// class without counting as a decision; ok is false when the class has
// never been seen.
func (c *Controller) BestVariant(site *Site, class int) (int, bool) {
	cs := c.peekClass(site, clampClass(class))
	if cs == nil {
		return 0, false
	}
	return int(cs.bestIdx.Load()), true
}

// VariantMeasured reports whether variant idx has a recorded
// measurement in a feature class: false for a class never seen and for
// a variant the sweep has not timed yet. An untimed DecideVariant
// answer that fails it is the prior's argmin, and the prior has no
// opinion between variants, so callers with a better default use that
// instead. Lock-free, like the converged read path.
func (c *Controller) VariantMeasured(site *Site, class, idx int) bool {
	cs := c.peekClass(site, clampClass(class))
	return cs != nil && idx >= 0 && idx < 64 && cs.measured.Load()&(1<<idx) != 0
}

// ClassVisits returns the number of measurements recorded for an
// explicit (site, class) pair — the introspection hook variant-site
// tests use, mirroring Visits for length-classed sites.
func (c *Controller) ClassVisits(site *Site, class int) int {
	cs := c.peekClass(site, clampClass(class))
	if cs == nil {
		return 0
	}
	cs.mu.Lock()
	v := int(cs.visits)
	cs.mu.Unlock()
	return v
}

// peekClass returns the (site, class) state without creating it.
func (c *Controller) peekClass(site *Site, sc int) *classState {
	es := c.entries.Load()
	if es == nil || int(site.id) >= len(*es) {
		return nil
	}
	e := (*es)[site.id]
	if e == nil {
		return nil
	}
	return e.classes[sc].Load()
}
