package adapt

import "testing"

func TestVariantSweepCoversAllVariants(t *testing.T) {
	c := New(Config{Seed: 7})
	site := NewVariantSite("test.sweep", 3)
	seen := map[int]bool{}
	for i := 0; i < 3; i++ {
		idx, tok := c.DecideVariant(site, 5, 0)
		if idx < 0 || idx >= 3 {
			t.Fatalf("variant index %d out of range", idx)
		}
		seen[idx] = true
		if !tok.Valid() {
			t.Fatalf("sweep decision %d returned no token", i)
		}
		c.Record(tok, 1e-3, 1000)
	}
	if len(seen) != 3 {
		t.Fatalf("first sweep hit %d/3 variants: %v", len(seen), seen)
	}
}

func TestVariantLearnsCheapest(t *testing.T) {
	c := New(Config{ConvergeAfter: 12, Seed: 3})
	site := NewVariantSite("test.learn", 3)
	// Variant 1 is 10x cheaper than the others; feed synthetic timings
	// until convergence and check the class locks onto it.
	cost := []float64{1e-2, 1e-3, 1e-2}
	for i := 0; i < 40; i++ {
		idx, tok := c.DecideVariant(site, 9, 0)
		c.Record(tok, cost[idx], 1000)
	}
	best, ok := c.BestVariant(site, 9)
	if !ok || best != 1 {
		t.Fatalf("BestVariant = %d, %v; want 1, true", best, ok)
	}
	if v := c.ClassVisits(site, 9); v < 3 {
		t.Fatalf("ClassVisits = %d, want >= 3", v)
	}
}

func TestVariantClassesIndependent(t *testing.T) {
	c := New(Config{ConvergeAfter: 9, Seed: 5})
	site := NewVariantSite("test.classes", 2)
	// Class 0 prefers variant 0, class 1 prefers variant 1.
	for i := 0; i < 30; i++ {
		for class := 0; class < 2; class++ {
			idx, tok := c.DecideVariant(site, class, 0)
			cost := 1e-3
			if idx != class {
				cost = 1e-2
			}
			c.Record(tok, cost, 1000)
		}
	}
	for class := 0; class < 2; class++ {
		if best, ok := c.BestVariant(site, class); !ok || best != class {
			t.Fatalf("class %d: BestVariant = %d, %v; want %d, true", class, best, ok, class)
		}
	}
}

func TestVariantHighLoadReturnsBestUntimed(t *testing.T) {
	c := New(Config{Seed: 2})
	site := NewVariantSite("test.load", 2)
	idx, tok := c.DecideVariant(site, 0, 0.99)
	if tok.Valid() {
		t.Fatal("high-load variant decision returned a timing token")
	}
	if idx != 0 {
		t.Fatalf("high-load decision = %d, want current best 0", idx)
	}
	if c.Stats().Degraded != 1 {
		t.Fatalf("Degraded = %d, want 1", c.Stats().Degraded)
	}
}

// TestVariantMeasured: a variant counts as measured in a class only
// once a timing for it was recorded there. Mid-sweep the untimed answer
// under load can name a variant nobody timed (unmeasured variants keep
// the prior, which undercuts every real timing); this is how a caller
// tells.
func TestVariantMeasured(t *testing.T) {
	c := New(Config{Seed: 6})
	site := NewVariantSite("test.measured", 3)
	if c.VariantMeasured(site, 4, 0) {
		t.Fatal("unseen class reports a measured variant")
	}
	idx, tok := c.DecideVariant(site, 4, 0)
	c.Record(tok, 1e-3, 1000)
	for v := 0; v < 3; v++ {
		if got := c.VariantMeasured(site, 4, v); got != (v == idx) {
			t.Errorf("after timing variant %d: VariantMeasured(%d) = %v", idx, v, got)
		}
	}
	best, tok := c.DecideVariant(site, 4, 0.99)
	if tok.Valid() || best == idx {
		t.Fatalf("degraded answer = %d (token %v); want an untimed variant other than the measured %d", best, tok.Valid(), idx)
	}
	if c.VariantMeasured(site, 4, best) {
		t.Errorf("degraded answer %d reports measured", best)
	}
	if c.VariantMeasured(site, 5, idx) || c.VariantMeasured(site, 4, -1) || c.VariantMeasured(site, 4, 64) {
		t.Error("measurement leaked to another class or an out-of-range index")
	}
}

func TestVariantClassClamped(t *testing.T) {
	c := New(Config{Seed: 4})
	site := NewVariantSite("test.clamp", 2)
	for _, class := range []int{-5, 0, maxSizeClass, maxSizeClass + 40} {
		idx, tok := c.DecideVariant(site, class, 0)
		if idx < 0 || idx >= 2 {
			t.Fatalf("class %d: index %d out of range", class, idx)
		}
		c.Record(tok, 1e-3, 100)
	}
	if v := c.ClassVisits(site, -5); v == 0 {
		t.Fatal("negative class did not clamp to class 0")
	}
	if v := c.ClassVisits(site, maxSizeClass+40); v == 0 {
		t.Fatal("oversized class did not clamp to the top class")
	}
}

func TestNewVariantSitePanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewVariantSite(0) did not panic")
		}
	}()
	NewVariantSite("test.zero", 0)
}
