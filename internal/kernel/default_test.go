package kernel

import (
	"encoding/binary"
	"slices"
	"testing"
	"time"

	"repro/internal/adapt"
	"repro/internal/exec"
	"repro/internal/gen"
	"repro/internal/par"
	"repro/internal/racecheck"
	"repro/internal/rng"
	"repro/internal/seq"
)

// sortTableShape is one input shape sortDefaultTable was read off:
// BenchmarkSortClasses times every variant on it at sortTableSizes,
// and the default tests run it through Kernel.Run. The number in a name
// is the key width in bits.
type sortTableShape struct {
	name string
	gen  func(n int) []int64
}

// sortTableSizes put two sizes in each of sortFeature's size buckets
// (edges at 4 096, 65 536 and 1 048 576 elements) but the first;
// 262 144 is wire_bulk's long-route size.
var sortTableSizes = []int{1 << 10, 1 << 12, 1 << 13, 1 << 16, 1 << 18, 1 << 20}

var sortTableShapes = []sortTableShape{
	{"uniform-64", func(n int) []int64 { return gen.Ints(n, gen.Uniform, 11) }},
	{"uniform-32", func(n int) []int64 { return maskKeys(gen.Ints(n, gen.Uniform, 12), 1<<32-1) }},
	// Just under psort.CountingMaxRange: the widest spread counting sort
	// still counts rather than handing over to radix sort.
	{"uniform-20", func(n int) []int64 { return maskKeys(gen.Ints(n, gen.Uniform, 13), 1<<20-1) }},
	{"uniform-16", func(n int) []int64 { return narrowInput(n, 14) }},
	{"nearly-sorted-64", func(n int) []int64 { return wideNearlySorted(n, 15) }},
	{"nearly-sorted-32", func(n int) []int64 { return shiftKeys(wideNearlySorted(n, 16), 32) }},
	{"nearly-sorted-16", func(n int) []int64 { return shiftKeys(wideNearlySorted(n, 17), 47) }},
	// sort's Gen shape for odd seeds: the ramp 0..n-1 with 1 % of pairs
	// swapped, masked to 16 bits (a sawtooth of sorted runs past 65 536).
	{"ramp-16", func(n int) []int64 { return maskKeys(gen.Ints(n, gen.NearlySorted, 18), 1<<16-1) }},
	// ramp-16 as bench/ sends it: every request is a pool input rotated
	// left, here by n/3. Rotation costs quicksort 2–3× on sorted runs.
	{"ramp-16-rot", func(n int) []int64 {
		xs := maskKeys(gen.Ints(n, gen.NearlySorted, 18), 1<<16-1)
		return slices.Concat(xs[n/3:], xs[:n/3])
	}},
	{"few-unique", func(n int) []int64 { return gen.Ints(n, gen.FewUnique, 19) }},
	{"reversed-ramp", func(n int) []int64 { return gen.Ints(n, gen.Reversed, 20) }},
}

func maskKeys(xs []int64, mask int64) []int64 {
	for i := range xs {
		xs[i] &= mask
	}
	return xs
}

// shiftKeys narrows 63-bit keys to 63-s bits. A shift is monotone, so a
// nearly sorted input stays nearly sorted.
func shiftKeys(xs []int64, s uint) []int64 {
	for i := range xs {
		xs[i] >>= s
	}
	return xs
}

// keysOfWidth is n keys in [lo, lo + 2^width - 1] with both ends
// present, so max - min is exactly width bits wide; sorted ascending or
// in random order.
func keysOfWidth(n, width int, lo int64, sorted bool) []int64 {
	r := rng.New(uint64(n*64 + width))
	span := uint64(1)<<width - 1
	xs := make([]int64, n)
	for i := range xs {
		xs[i] = lo + int64(r.Uint64()&span)
	}
	xs[0], xs[n-1] = lo, lo+int64(span)
	if sorted {
		slices.Sort(xs)
	}
	return xs
}

// TestSortDefaultTable pins the variant a no-controller sort runs at
// the edges of sortFeature's buckets: key widths either side of 8, 16
// and 32 bits, spreads either side of n (the dense edge), sizes either
// side of 4 096 and 65 536, negative minima (the width is max - min,
// not the magnitude), sorted and unsorted.
func TestSortDefaultTable(t *testing.T) {
	k := MustLookup("sort")
	for _, c := range []struct {
		width, n int
		lo       int64
		sorted   bool
		want     string
	}{
		{8, 4095, -128, true, "counting"},
		{8, 4096, 0, false, "counting"},
		{9, 4095, 0, false, "counting"}, // spread 511 < n: dense
		{9, 4096, 0, false, "counting"},
		// Spread n - 1 is dense; spread n is not.
		{12, 4096, 0, false, "counting"},
		{12, 4096, -3000, true, "counting"},
		{12, 4095, 0, false, "sample"},
		{12, 4095, 0, true, "sample"},
		{13, 8192, 0, true, "counting"},
		{13, 8192, 0, false, "counting"},
		{13, 8191, 0, true, "sample"},
		{13, 8191, 0, false, "counting"},
		{16, 4096, -30000, false, "counting"},
		{16, 4096, 0, true, "sample"},
		{16, 65535, 0, true, "sample"},
		{16, 65536, 0, true, "counting"},
		{17, 4095, 0, false, "radix"},
		{17, 4095, 0, true, "sample"},
		{32, 4096, -1 << 31, false, "radix"},
		{32, 65536, 0, false, "counting"},
		{32, 65536, 0, true, "sample"},
		{33, 4095, 0, false, "sample"},
		{33, 4096, -1 << 40, false, "radix"},
		{63, 4096, 0, true, "sample"},
		{63, 65536, -1 << 62, false, "radix"},
	} {
		a := &Args{Xs: keysOfWidth(c.n, c.width, c.lo, c.sorted)}
		class := k.Feature(a)
		if got := k.Variants[k.Default(class)].Name; got != c.want {
			t.Errorf("width %d n %d min %d sorted %v (class %d): default %s, want %s",
				c.width, c.n, c.lo, c.sorted, class, got, c.want)
		}
	}
}

// TestSortDefaultMatchesSerial is the differential check on the
// no-controller path: every table shape at every table size, at Procs 1
// (a serve batch slot, parserve's long route) and Procs 2 (a wider long
// route), against the serial oracle.
func TestSortDefaultMatchesSerial(t *testing.T) {
	k := MustLookup("sort")
	for _, s := range sortTableShapes {
		for _, n := range sortTableSizes {
			if n > 1<<18 && (testing.Short() || racecheck.Enabled) {
				continue
			}
			base := s.gen(n)
			want := &Args{Xs: slices.Clone(base)}
			k.Serial(want)
			for _, procs := range []int{1, 2} {
				got := &Args{Xs: slices.Clone(base)}
				k.Run(got, par.Options{Procs: procs})
				if err := k.Check(got, want); err != nil {
					t.Fatalf("%s n=%d procs=%d (default %s): %v", s.name, n, procs,
						k.Variants[k.Default(k.Feature(&Args{Xs: base}))].Name, err)
				}
			}
		}
	}
}

// recordingSort is an unregistered copy of the sort descriptor, with a
// variant site of its own, whose variants store their index in *ran
// before running: the way a test sees which algorithm a dispatch chose.
func recordingSort(ran *int) *Kernel {
	k := *MustLookup("sort")
	k.Variants = slices.Clone(k.Variants)
	for i := range k.Variants {
		run := k.Variants[i].Run
		k.Variants[i].Run = func(a *Args, o par.Options) {
			*ran = i
			run(a, o)
		}
	}
	k.site = adapt.NewVariantSite("test.recording-sort", len(k.Variants))
	return &k
}

func TestRunWithoutControllerRunsDefault(t *testing.T) {
	ran := -1
	k := recordingSort(&ran)
	for _, s := range sortTableShapes {
		xs := s.gen(1 << 13)
		want := k.Default(k.Feature(&Args{Xs: xs}))
		k.Run(&Args{Xs: xs}, par.Options{Procs: 1})
		if ran != want {
			t.Errorf("%s: ran %s, want default %s", s.name, k.Variants[ran].Name, k.Variants[want].Name)
		}
	}
	k.Default = nil
	k.Run(&Args{Xs: narrowInput(1<<13, 1)}, par.Options{Procs: 1})
	if ran != 0 {
		t.Errorf("kernel without Default ran %s, want variant 0", k.Variants[ran].Name)
	}
}

// TestDegradedDecisionRunsDefault is the controller's fallback: on a
// saturated executor DecideVariant sheds load and answers untimed, and
// for a narrow-key class it never measured that answer must not be
// variant 0 (sample) but the default, counting sort — or -adapt on
// would sort slower under load than no controller.
func TestDegradedDecisionRunsDefault(t *testing.T) {
	e := exec.New(1)
	defer e.Close()
	release := make(chan struct{})
	defer close(release)
	e.Submit(func() { <-release })
	for i := 0; e.Occupancy() < 1 && i < 1000; i++ {
		time.Sleep(time.Millisecond)
	}
	if e.Occupancy() < 1 {
		t.Skip("could not saturate the executor")
	}
	ran := -1
	k := recordingSort(&ran)
	ctl := adapt.New(adapt.Config{Seed: 1})
	a := &Args{Xs: narrowInput(1<<16, 2)}
	k.Run(a, par.Options{Procs: 1, Executor: e, Adaptive: ctl})
	if ctl.Stats().Degraded != 1 {
		t.Fatalf("Degraded = %d, want 1: the controller was not past HighLoad", ctl.Stats().Degraded)
	}
	if ran != sortCounting {
		t.Errorf("degraded decision on an unseen narrow class ran %s, want counting", k.Variants[ran].Name)
	}
	if !slices.IsSorted(a.Xs) {
		t.Error("output not sorted")
	}
}

func encodeKeys(xs []int64) []byte {
	data := make([]byte, 8*len(xs))
	for i, x := range xs {
		binary.LittleEndian.PutUint64(data[8*i:], uint64(x))
	}
	return data
}

// maxFuzzKeys caps a fuzzed input at 8 Ki keys: past the 4 Ki edge where
// radix and counting sort take over, and small enough that the engine's
// minimizer, which runs an input thousands of times, stays quick.
const maxFuzzKeys = 1 << 13

// FuzzSortDefault holds sort's no-controller dispatch, whichever
// variant the default picks for the input's class, to seq.Quicksort.
// The fuzzed words are tiled out to n keys (so the fuzzer reaches the
// sizes where radix and counting sort take over), masked to width bits
// and offset by lo (so it reaches every width bucket and negative
// keys).
func FuzzSortDefault(f *testing.F) {
	ramp := make([]int64, 64)
	for i := range ramp {
		ramp[i] = int64(i)
	}
	f.Add(uint8(16), uint16(5000), int64(0), encodeKeys(ramp))
	// The dense edge: the ramp tiled out to 8 Ki keys of 13 bits has a
	// spread of n - 1, and one key fewer is no longer dense.
	f.Add(uint8(13), uint16(maxFuzzKeys), int64(0), encodeKeys(ramp))
	f.Add(uint8(8), uint16(300), int64(-100), encodeKeys([]int64{3, 1, 2}))
	f.Add(uint8(63), uint16(8000), int64(0), encodeKeys([]int64{-1, 1 << 62, 7, -(1 << 40)}))
	f.Add(uint8(32), uint16(4096), int64(-1<<31), encodeKeys(gen.Ints(40, gen.Uniform, 1)))
	f.Add(uint8(0), uint16(0), int64(0), []byte{})
	k := MustLookup("sort")
	f.Fuzz(func(t *testing.T, width uint8, n uint16, lo int64, data []byte) {
		words := min(len(data)/8, maxFuzzKeys)
		if words == 0 {
			return
		}
		mask := int64(-1)
		if w := width % 64; w != 0 {
			mask = 1<<w - 1
		}
		xs := make([]int64, max(words, int(n)%(maxFuzzKeys+1)))
		for i := range xs {
			v := int64(binary.LittleEndian.Uint64(data[8*(i%words):]))
			xs[i] = (v^int64(i/words)*0x5851F42D4C957F2D)&mask + lo
		}
		want := slices.Clone(xs)
		seq.Quicksort(want)
		for _, procs := range []int{1, 2} {
			got := &Args{Xs: slices.Clone(xs)}
			k.Run(got, par.Options{Procs: procs})
			if !slices.Equal(got.Xs, want) {
				t.Fatalf("procs %d n %d width %d: default %s does not match quicksort", procs, len(xs), width%64,
					k.Variants[k.Default(k.Feature(&Args{Xs: xs}))].Name)
			}
		}
	})
}
