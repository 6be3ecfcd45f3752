package kernel

import (
	"encoding/binary"
	"slices"
	"testing"

	"repro/internal/gen"
	"repro/internal/par"
	"repro/internal/racecheck"
	"repro/internal/rng"
	"repro/internal/seq"
)

// sortTableShape is one input shape sortDefaultTable was read off:
// BenchmarkSortClasses times every variant on it at sortTableSizes,
// and the default tests run it through Kernel.Run. The number in a name
// is the key width in bits. gen draws an input of n keys from seed;
// input picks the j-th of a row's distinct inputs.
type sortTableShape struct {
	name string
	seed uint64
	gen  func(n int, seed uint64) []int64
}

func (s sortTableShape) input(n, j int) []int64 { return s.gen(n, s.seed+uint64(j)<<8) }

// sortTableSizes put two sizes in each of sortFeature's size buckets
// (edges at 4 096, 65 536 and 1 048 576 elements) but the first;
// 262 144 is wire_bulk's long-route size.
var sortTableSizes = []int{1 << 10, 1 << 12, 1 << 13, 1 << 16, 1 << 18, 1 << 20}

var sortTableShapes = []sortTableShape{
	{"uniform-64", 11, func(n int, seed uint64) []int64 { return gen.Ints(n, gen.Uniform, seed) }},
	{"uniform-32", 12, func(n int, seed uint64) []int64 { return maskKeys(gen.Ints(n, gen.Uniform, seed), 1<<32-1) }},
	// Just under psort.CountingMaxRange: the widest spread counting sort
	// still counts rather than handing over to radix sort.
	{"uniform-20", 13, func(n int, seed uint64) []int64 { return maskKeys(gen.Ints(n, gen.Uniform, seed), 1<<20-1) }},
	{"uniform-16", 14, narrowInput},
	{"nearly-sorted-64", 15, wideNearlySorted},
	{"nearly-sorted-32", 16, func(n int, seed uint64) []int64 { return shiftKeys(wideNearlySorted(n, seed), 32) }},
	{"nearly-sorted-16", 17, func(n int, seed uint64) []int64 { return shiftKeys(wideNearlySorted(n, seed), 47) }},
	// sort's Gen shape for odd seeds: the ramp 0..n-1 with 1 % of pairs
	// swapped, masked to 16 bits (a sawtooth of sorted runs past 65 536).
	{"ramp-16", 18, func(n int, seed uint64) []int64 { return maskKeys(gen.Ints(n, gen.NearlySorted, seed), 1<<16-1) }},
	// ramp-16 as bench/ sends it: every request is a pool input rotated
	// left, here by n/3. Rotation costs quicksort 2–3× on sorted runs.
	{"ramp-16-rot", 18, func(n int, seed uint64) []int64 {
		xs := maskKeys(gen.Ints(n, gen.NearlySorted, seed), 1<<16-1)
		return slices.Concat(xs[n/3:], xs[:n/3])
	}},
	{"few-unique", 19, func(n int, seed uint64) []int64 { return gen.Ints(n, gen.FewUnique, seed) }},
	// The ramp n..1 is the same for every seed; the seed shifts it.
	{"reversed-ramp", 20, func(n int, seed uint64) []int64 { return stridedRamp(n, 1, seed) }},
	// Equal-bucket keys that are not dense: the spread is 2n.
	{"reversed-ramp-2", 21, func(n int, seed uint64) []int64 { return stridedRamp(n, 2, seed) }},
	// The radix leaf's adversaries. equal-top-64's top two digits are
	// equal, so the leaf's digit plan expects 1/65 536 of the keys to
	// share a 16-bit prefix where 1/256 do, and its insertion finish
	// runs past its budget. gap-middle is the nearly sorted ramp i with
	// its bits 8..39 cleared and i shifted above them: a constant middle
	// run its digits must skip.
	{"equal-top-64", 22, equalTopKeys},
	{"gap-middle", 23, func(n int, seed uint64) []int64 {
		xs := gen.Ints(n, gen.NearlySorted, seed)
		for i, v := range xs {
			xs[i] = v<<40 | v&0xff
		}
		return xs
	}},
}

// stridedRamp is the descending ramp stride·n, ..., stride·1 plus seed.
func stridedRamp(n int, stride int64, seed uint64) []int64 {
	xs := make([]int64, n)
	for i := range xs {
		xs[i] = stride*int64(n-i) + int64(seed)
	}
	return xs
}

// equalTopKeys is n non-negative keys whose top two 8-bit digits of
// max - min are equal: t<<55 | t<<47 | r, with t a random byte and r a
// random 47-bit tail. The first and last keys are the extremes, 0 and
// 255<<55 | 255<<47, so max - min is 63 bits wide.
func equalTopKeys(n int, seed uint64) []int64 {
	r := rng.New(seed)
	xs := make([]int64, n)
	for i := range xs {
		t := r.Uint64() >> 56
		xs[i] = int64(t<<55 | t<<47 | r.Uint64()>>17)
	}
	xs[0], xs[n-1] = 0, 255<<55|255<<47
	return xs
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

// TestSortDefaultTable pins the variant a sort dispatches to at
// the edges of sortFeature's buckets: key widths either side of 8, 16
// and 32 bits, spreads either side of n (the dense edge), sizes either
// side of 4 096, 65 536 and 1 048 576, negative minima (the width is
// max - min, not the magnitude), sorted and unsorted.
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
		{12, 4095, 0, false, "radix"},
		{12, 4095, 0, true, "sample"},
		{13, 8192, 0, true, "counting"},
		{13, 8192, 0, false, "counting"},
		{13, 8191, 0, true, "sample"},
		{13, 8191, 0, false, "radix"},
		{16, 4096, -30000, false, "radix"},
		{16, 4096, 0, true, "sample"},
		{16, 65535, 0, true, "sample"},
		{16, 65536, 0, true, "counting"},
		{17, 4095, 0, false, "radix"},
		{17, 4095, 0, true, "sample"},
		{32, 4096, -1 << 31, false, "radix"},
		{32, 65535, 0, true, "sample"},
		{32, 65536, 0, false, "radix"},
		{32, 65536, 0, true, "radix"},
		{32, 1<<20 - 1, 0, false, "radix"},
		{32, 1 << 20, 0, false, "radix"},
		{32, 1 << 20, 0, true, "radix"},
		{33, 4095, 0, false, "radix"},
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
// dispatch path: every table shape at every table size, at Procs 1
// (a serve batch slot, parserve's long route) and Procs 2 (a wider long
// route), against the serial oracle.
func TestSortDefaultMatchesSerial(t *testing.T) {
	k := MustLookup("sort")
	for _, s := range sortTableShapes {
		for _, n := range sortTableSizes {
			if n > 1<<18 && (testing.Short() || racecheck.Enabled) {
				continue
			}
			base := s.input(n, 0)
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

// recordingSort is an unregistered copy of the sort descriptor whose
// variants store their index in *ran before running: the way a test
// sees which algorithm a dispatch chose.
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
	return &k
}

func TestRunWithoutControllerRunsDefault(t *testing.T) {
	ran := -1
	k := recordingSort(&ran)
	for _, s := range sortTableShapes {
		xs := s.input(1<<13, 0)
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

// FuzzSortDefault holds sort's dispatch, whichever
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
