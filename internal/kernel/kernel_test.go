package kernel

import (
	"slices"
	"testing"

	"repro/internal/adapt"
	"repro/internal/gen"
	"repro/internal/par"
)

func TestRegistryRoster(t *testing.T) {
	for _, name := range []string{"sort", "select", "histogram", "scan", "sum", "bfs", "gups"} {
		if Lookup(name) == nil {
			t.Errorf("built-in kernel %q not registered", name)
		}
	}
	names := Names()
	if !slices.IsSorted(names) {
		t.Errorf("Names() not sorted: %v", names)
	}
	if len(All()) != len(names) {
		t.Errorf("All() has %d kernels, Names() %d", len(All()), len(names))
	}
	if Lookup("no-such-kernel") != nil {
		t.Error("Lookup of unknown name returned a kernel")
	}
}

func TestRegisterRejectsIncompleteAndDuplicate(t *testing.T) {
	mustPanic := func(name string, k Kernel) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: Register did not panic", name)
			}
		}()
		Register(k)
	}
	ok := Kernel{
		Name:     "sort", // duplicate of the built-in
		Variants: []Variant{{Name: "v", Run: func(*Args, par.Options) {}}},
		Serial:   func(*Args) {},
		Gen:      func(int, uint64) *Args { return &Args{} },
		Check:    func(*Args, *Args) error { return nil },
	}
	mustPanic("duplicate", ok)
	missing := ok
	missing.Name = "test-incomplete"
	missing.Serial = nil
	mustPanic("missing serial", missing)
	unnamed := ok
	unnamed.Name = "test-unnamed-variant"
	unnamed.Variants = []Variant{{Run: func(*Args, par.Options) {}}}
	mustPanic("unnamed variant", unnamed)
	uncacheable := ok
	uncacheable.Name = "test-cached-hist"
	uncacheable.Out, uncacheable.Cache = OutHist, true
	mustPanic("cached Hist output", uncacheable)
}

// TestRegisterValidatesDefault: a Default without a Feature to feed
// it, on a kernel with nothing to choose between, or naming a variant
// that does not exist for some class is an init-time panic, not a
// dispatch-time index error.
func TestRegisterValidatesDefault(t *testing.T) {
	run := func(*Args, par.Options) {}
	base := Kernel{
		Variants: []Variant{{Name: "a", Run: run}, {Name: "b", Run: run}},
		Serial:   func(*Args) {},
		Gen:      func(int, uint64) *Args { return &Args{} },
		Check:    func(*Args, *Args) error { return nil },
		Feature:  func(*Args) int { return 0 },
		Default:  func(int) int { return 1 },
	}
	for _, c := range []struct {
		name string
		edit func(k *Kernel)
	}{
		{"without feature", func(k *Kernel) { k.Feature = nil }},
		{"single variant", func(k *Kernel) { k.Variants = k.Variants[:1]; k.Default = func(int) int { return 0 } }},
		{"index out of range", func(k *Kernel) {
			k.Default = func(class int) int {
				if class == 63 {
					return 2
				}
				return 0
			}
		}},
		{"negative index", func(k *Kernel) { k.Default = func(class int) int { return class - 40 } }},
	} {
		k := base
		k.Name = "test-default-" + c.name
		c.edit(&k)
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: Register did not panic", c.name)
				}
			}()
			Register(k)
		}()
		if Lookup(k.Name) != nil {
			t.Errorf("%s: rejected kernel was installed", c.name)
		}
	}
}

func TestRunWithoutControllerUsesDefaultVariant(t *testing.T) {
	k := MustLookup("sort")
	got := k.Gen(4096, 1)
	want := k.Gen(4096, 1)
	k.Serial(want)
	k.Run(got, par.Options{Procs: 2, SerialCutoff: 1})
	if err := k.Check(got, want); err != nil {
		t.Fatal(err)
	}
}

func TestRunVariantOracleChecksEveryAlgorithm(t *testing.T) {
	k := MustLookup("sort")
	for i, v := range k.Variants {
		for seed := uint64(0); seed < 4; seed++ {
			got := k.Gen(8192, seed)
			want := k.Gen(8192, seed)
			k.Serial(want)
			k.RunVariant(i, got, par.Options{Procs: 2, SerialCutoff: 1})
			if err := k.Check(got, want); err != nil {
				t.Fatalf("variant %s seed %d: %v", v.Name, seed, err)
			}
		}
	}
}

// narrowInput is a uniform uint16-range key array: counting sort's
// home turf.
func narrowInput(n int, seed uint64) []int64 {
	xs := gen.Ints(n, gen.Uniform, seed)
	for i := range xs {
		xs[i] &= 0xFFFF
	}
	return xs
}

// wideNearlySorted is full-range keys in nearly sorted order, 1 % of
// them swapped: quicksort's comparisons predict well here, and the
// radix leaf sorts on a 16-bit prefix and insertion finishes the rest,
// so the two run near parity (BenchmarkSortWide64).
func wideNearlySorted(n int, seed uint64) []int64 {
	xs := gen.Ints(n, gen.Uniform, seed)
	slices.Sort(xs)
	r := seed*2 + 1
	for k := 0; k < n/100; k++ {
		r = r*6364136223846793005 + 1442695040888963407
		i := int(r>>33) % n
		j := (i*7 + 13) % n
		xs[i], xs[j] = xs[j], xs[i]
	}
	return xs
}

// warmSortDispatch drives the sort kernel's variant lattice to
// convergence on copies of base and returns the controller.
func warmSortDispatch(t *testing.T, base []int64, rounds int) *adapt.Controller {
	t.Helper()
	k := MustLookup("sort")
	ctl := adapt.New(adapt.Config{ConvergeAfter: 12, Seed: 9})
	xs := make([]int64, len(base))
	for i := 0; i < rounds; i++ {
		copy(xs, base)
		a := &Args{Xs: xs}
		k.Run(a, par.Options{Procs: 1, Adaptive: ctl})
		if !slices.IsSorted(xs) {
			t.Fatal("dispatched variant failed to sort")
		}
	}
	return ctl
}

// checkVariantSweep asserts the structural half of adaptive dispatch
// through Kernel.Run: the controller created the input's feature class,
// recorded visits under it and timed every variant there, so its best
// is a timed one.
func checkVariantSweep(t *testing.T, k *Kernel, ctl *adapt.Controller, class int) {
	t.Helper()
	if _, ok := ctl.BestVariant(k.Site(), class); !ok {
		t.Fatalf("variant class %d never created", class)
	}
	for i, v := range k.Variants {
		if !ctl.VariantMeasured(k.Site(), class, i) {
			t.Errorf("variant %s never timed in class %d", v.Name, class)
		}
	}
	if v := ctl.ClassVisits(k.Site(), class); v == 0 {
		t.Error("variant site recorded no visits")
	}
}

// TestVariantDispatchPrefersCountingOnNarrowKeys: on uniform 16-bit
// keys both dispatch paths leave sample sort for a narrow-key
// specialist. The converged controller's pick is a wall-clock fact, but
// not a close one: sample reads about 9x radix there (BENCHMARKS.md,
// "Variant dispatch").
func TestVariantDispatchPrefersCountingOnNarrowKeys(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-driven convergence test")
	}
	k := MustLookup("sort")
	base := narrowInput(1<<15, 3)
	class := k.Feature(&Args{Xs: base})
	if d := k.Default(class); d == sortSample {
		t.Errorf("no-controller default for narrow class %d is sample", class)
	}
	ctl := warmSortDispatch(t, base, 24)
	checkVariantSweep(t, k, ctl, class)
	if best, _ := ctl.BestVariant(k.Site(), class); best == sortSample {
		t.Errorf("narrow keys converged to %q; want a narrow-key specialist (radix or counting)",
			k.Variants[best].Name)
	}
}

// TestVariantDispatchPrefersSampleOnWideSortedKeys: on wide nearly
// sorted keys the no-controller dispatch runs sample sort, the entry
// sortDefaultTable holds for that class, and the controller sweeps the
// class. Which variant a converged controller settles on is not
// asserted: since the top-digit radix leaf, radix reads about 1.08x
// sample there, so the pick is a coin flip; the ratio is read off
// BenchmarkSortWide64 (BENCHMARKS.md, "Top-digit radix leaf").
func TestVariantDispatchPrefersSampleOnWideSortedKeys(t *testing.T) {
	if testing.Short() {
		t.Skip("24 sorts of 32 Ki keys")
	}
	k := MustLookup("sort")
	base := wideNearlySorted(1<<15, 5)
	class := k.Feature(&Args{Xs: base})
	if d := k.Default(class); d != sortSample {
		t.Errorf("no-controller default for wide nearly sorted class %d is %q; want sample",
			class, k.Variants[d].Name)
	}
	checkVariantSweep(t, k, warmSortDispatch(t, base, 24), class)
}

func TestSortFeatureSeparatesRegimes(t *testing.T) {
	narrow := &Args{Xs: narrowInput(1<<15, 1)}
	wide := &Args{Xs: wideNearlySorted(1<<15, 1)}
	cn, cw := sortFeature(narrow), sortFeature(wide)
	if cn == cw {
		t.Fatalf("narrow and wide inputs share feature class %d", cn)
	}
	for _, a := range []*Args{narrow, wide, {Xs: nil}} {
		if c := sortFeature(a); c < 0 || c > 63 {
			t.Fatalf("feature class %d out of [0, 63]", c)
		}
	}
}

func TestGUPSMatchesSerialAcrossProcs(t *testing.T) {
	k := MustLookup("gups")
	for _, procs := range []int{1, 2, 4} {
		for seed := uint64(0); seed < 3; seed++ {
			got := k.Gen(4096, seed)
			want := k.Gen(4096, seed)
			k.Serial(want)
			k.Run(got, par.Options{Procs: procs, SerialCutoff: 1, Grain: 64})
			if err := k.Check(got, want); err != nil {
				t.Fatalf("procs=%d seed=%d: %v", procs, seed, err)
			}
		}
	}
}

func TestGUPSValidateRejectsBadTables(t *testing.T) {
	k := MustLookup("gups")
	for _, bad := range []*Args{
		{Xs: nil, K: 1},
		{Xs: make([]int64, 3), K: 1},
		{Xs: make([]int64, 4), K: -1},
	} {
		if err := k.Validate(bad); err == nil {
			t.Errorf("Validate accepted table len %d, K %d", len(bad.Xs), bad.K)
		}
	}
	if err := k.Validate(k.Gen(1000, 1)); err != nil {
		t.Errorf("Validate rejected generated args: %v", err)
	}
}

func TestArgsLen(t *testing.T) {
	if (&Args{Xs: make([]int64, 5)}).Len() != 5 {
		t.Error("Len != len(Xs)")
	}
	b := MustLookup("bfs").Gen(17, 0)
	if b.Len() != 17 {
		t.Errorf("graph Len = %d, want 17", b.Len())
	}
}

// TestLookupBytes pins the decoder's entry to the registry: the same
// kernels as Lookup, nil for unknown names, and no allocation for the
// []byte key.
func TestLookupBytes(t *testing.T) {
	name := []byte("sort")
	if got := LookupBytes(name); got == nil || got != Lookup("sort") {
		t.Fatalf("LookupBytes(sort) = %v, want the registered sort kernel", got)
	}
	if got := LookupBytes([]byte("no-such-kernel")); got != nil {
		t.Fatalf("LookupBytes(unknown) = %v, want nil", got)
	}
	if allocs := testing.AllocsPerRun(100, func() { _ = LookupBytes(name) }); allocs != 0 {
		t.Fatalf("LookupBytes allocates %.1f per call, want 0", allocs)
	}
}
