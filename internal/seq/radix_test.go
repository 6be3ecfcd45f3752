package seq

import (
	"encoding/binary"
	"fmt"
	"slices"
	"testing"

	"repro/internal/gen"
	"repro/internal/rng"
)

// radixShapes are the inputs RadixSort's digit plan and finish are
// checked on: spread-out keys, skewed and narrow signed ones, and the
// ones its plan gets wrong or must skip bits on.
var radixShapes = []struct {
	name string
	gen  func(n int, seed uint64) []int64
}{
	{"uniform-63", func(n int, seed uint64) []int64 { return gen.Ints(n, gen.Uniform, seed) }},
	{"uniform-32", func(n int, seed uint64) []int64 {
		xs := gen.Ints(n, gen.Uniform, seed)
		for i := range xs {
			xs[i] &= 1<<32 - 1
		}
		return xs
	}},
	{"gaussian", func(n int, seed uint64) []int64 { return gen.Ints(n, gen.Gaussian, seed) }},
	{"zipf", func(n int, seed uint64) []int64 { return gen.Ints(n, gen.Zipf, seed) }},
	{"few-unique", func(n int, seed uint64) []int64 { return gen.Ints(n, gen.FewUnique, seed) }},
	{"nearly-sorted-63", func(n int, seed uint64) []int64 {
		xs := gen.Ints(n, gen.Uniform, seed)
		slices.Sort(xs)
		r := rng.New(seed)
		for k := 0; k < n/100; k++ {
			i, j := r.Intn(n), r.Intn(n)
			xs[i], xs[j] = xs[j], xs[i]
		}
		return xs
	}},
	// Equal-bucket keys that are not dense: the spread is 2n.
	{"reversed-ramp-2", func(n int, _ uint64) []int64 {
		xs := make([]int64, n)
		for i := range xs {
			xs[i] = 2 * int64(n-i)
		}
		return xs
	}},
	// The top two digits of u are equal: the plan expects 1/65 536 of
	// the keys to share a 16-bit prefix where 1/256 do, so at 8 Ki the
	// finish runs past its budget and the runs are sorted one by one.
	{"equal-top", func(n int, seed uint64) []int64 {
		r := rng.New(seed)
		xs := make([]int64, n)
		for i := range xs {
			t := r.Uint64() >> 56
			xs[i] = int64(t<<55 | t<<47 | r.Uint64()>>17)
		}
		xs[0], xs[n-1] = 0, 255<<55|255<<47
		return xs
	}},
	// equal-top with bits 40..45 clear: inside an equal-prefix run the
	// next digit takes two values, so the run's own finish runs past
	// its budget too.
	{"equal-top-sparse", func(n int, seed uint64) []int64 {
		r := rng.New(seed)
		xs := make([]int64, n)
		for i := range xs {
			t := r.Uint64() >> 56
			xs[i] = int64(t<<55 | t<<47 | r.Uint64()>>63<<46 | r.Uint64()>>24)
		}
		return xs
	}},
	// Bits 8..39 are constant: the digits must skip them.
	{"gap-middle", func(n int, seed uint64) []int64 {
		xs := gen.Ints(n, gen.NearlySorted, seed)
		for i, v := range xs {
			xs[i] = v<<40 | v&0xff
		}
		return xs
	}},
	{"gap-middle-random", func(n int, seed uint64) []int64 {
		xs := gen.Ints(n, gen.Uniform, seed)
		for i, v := range xs {
			xs[i] = v>>40<<40 | v&0xff
		}
		return xs
	}},
}

// TestRadixSortShapes holds RadixSort to slices.Sort on every shape,
// as generated (non-negative but for gaussian) and shifted down by 2^62
// (signed), at 1 Ki to 1 Mi keys, with no buffer and with one of
// length n. 48 Ki - 1 keys is the largest 8-bit plan, 48 Ki the
// smallest 11-bit one; 60 Ki and 64 Ki - 1 are where two 8-bit digits
// would leave about one equal-prefix neighbour per key.
func TestRadixSortShapes(t *testing.T) {
	for _, s := range radixShapes {
		for _, n := range []int{1 << 10, 1 << 12, 1 << 13, wideKeys - 1, wideKeys, 60 << 10, 1<<16 - 1, 1 << 18, 1 << 20} {
			if n > 1<<16 && testing.Short() {
				continue
			}
			for _, shift := range []int64{0, -1 << 62} {
				base := s.gen(n, uint64(n))
				for i := range base {
					base[i] += shift
				}
				want := slices.Clone(base)
				slices.Sort(want)
				for _, buf := range [][]int64{nil, make([]int64, n)} {
					got := slices.Clone(base)
					RadixSort(got, buf)
					if !slices.Equal(got, want) {
						t.Fatalf("%s n=%d shift=%d buf=%d: %s", s.name, n, shift, len(buf), firstMismatch(got, want))
					}
				}
			}
		}
	}
}

func firstMismatch(got, want []int64) string {
	for i := range want {
		if got[i] != want[i] {
			return fmt.Sprintf("xs[%d] = %d, want %d", i, got[i], want[i])
		}
	}
	return "equal"
}

// maxRadixFuzzWords caps the fuzzed words at 64 Ki - 1, the largest n a
// uint16 holds; scale then multiplies the key count by up to four.
const maxRadixFuzzWords = 1<<16 - 1

// FuzzRadixSort holds RadixSort to slices.Sort. The fuzzed words are
// tiled out to n keys, times 1 to 4 by scale, so inputs reach 256 Ki
// keys and both digit widths. Keys are masked to width bits and offset
// by lo, so the fuzzer reaches every digit count and signed ranges. A
// non-zero dup copies the top 8 bits of the width into the 8 below
// them, which makes the plan's independence estimate wrong and reaches
// the finish's fallback.
func FuzzRadixSort(f *testing.F) {
	words := make([]byte, 8*64)
	r := rng.New(1)
	for i := 0; i < len(words); i += 8 {
		binary.LittleEndian.PutUint64(words[i:], r.Uint64())
	}
	f.Add(uint8(63), uint16(8192), uint8(0), int64(0), uint8(1), words)
	f.Add(uint8(32), uint16(1000), uint8(0), int64(-1<<31), uint8(0), words)
	f.Add(uint8(0), uint16(40000), uint8(0), int64(-5), uint8(0), words)
	f.Add(uint8(12), uint16(3), uint8(0), int64(1<<62), uint8(7), []byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Add(uint8(63), uint16(65535), uint8(3), int64(0), uint8(1), words)
	f.Add(uint8(63), uint16(wideKeys-1), uint8(0), int64(0), uint8(0), words)
	f.Add(uint8(40), uint16(50000), uint8(1), int64(-1<<39), uint8(0), words)
	f.Fuzz(func(t *testing.T, width uint8, n uint16, scale uint8, lo int64, dup uint8, data []byte) {
		words := min(len(data)/8, maxRadixFuzzWords)
		if words == 0 {
			return
		}
		w := uint(width%64) + 1
		mask := ^uint64(0) >> (64 - w)
		xs := make([]int64, max(words, int(n))*(1+int(scale%4)))
		for i := range xs {
			u := (binary.LittleEndian.Uint64(data[8*(i%words):]) ^ uint64(i/words)*0x5851F42D4C957F2D) & mask
			if dup != 0 && w >= 16 {
				u = u&^(0xff<<(w-16)) | (u>>(w-8)&0xff)<<(w-16)
			}
			xs[i] = int64(u) + lo
		}
		want := slices.Clone(xs)
		slices.Sort(want)
		RadixSort(xs, nil)
		if !slices.Equal(xs, want) {
			t.Fatalf("n %d width %d lo %d dup %d: %s", len(xs), w, lo, dup, firstMismatch(xs, want))
		}
	})
}
