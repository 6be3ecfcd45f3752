package psel

import (
	"encoding/binary"
	"slices"
	"testing"

	"repro/internal/gen"
	"repro/internal/par"
)

// maxFuzzKeys caps a fuzzed input at 8 Ki keys, across the 4 096-element
// edge where Select at Procs 2 leaves the serial leaf for the partition
// loop. At most maxFuzzWords fuzzed words are tiled out to that length:
// the engine minimizes every new interesting input by rerunning it once
// per byte it tries to drop, so long byte inputs stall the session.
const (
	maxFuzzKeys  = 1 << 13
	maxFuzzWords = 256
)

func encodeKeys(xs []int64) []byte {
	data := make([]byte, 8*len(xs))
	for i, x := range xs {
		binary.LittleEndian.PutUint64(data[8*i:], uint64(x))
	}
	return data
}

// tiledKeys is FuzzSelect's input shape: at most maxFuzzWords words of
// data tiled out to n keys (but never fewer than the words), each tile
// XORed with its own multiple of an odd constant, and every key ANDed
// with mask when mask is nonzero. It returns nil when data holds no
// whole word.
func tiledKeys(data []byte, n uint16, mask uint8) []int64 {
	words := min(len(data)/8, maxFuzzWords)
	if words == 0 {
		return nil
	}
	xs := make([]int64, max(words, int(n)%(maxFuzzKeys+1)))
	for i := range xs {
		v := int64(binary.LittleEndian.Uint64(data[8*(i%words):]))
		xs[i] = v ^ int64(i/words)*0x5851F42D4C957F2D
		if mask != 0 {
			xs[i] &= int64(mask)
		}
	}
	return xs
}

// poisonedTile is tiledKeys data for 512 keys under mask 0xD2, which
// clears every bit the two tiles' XOR constants (0 and 0x…2D) set, so
// key i is 0 when i%8 < 4 and 0xD2 otherwise. The serial leaf's stride
// sample at 512 keys reads every eighth key, all zeros, so its bracket
// is u == w == 0 wherever neither end of it falls off the sample (rank
// 200, say), and every rank from 256 up misses.
func poisonedTile() []byte {
	ws := make([]int64, maxFuzzWords)
	for i := range ws {
		if i%8 >= 4 {
			ws[i] = 0xD2
		}
	}
	return encodeKeys(ws)
}

// FuzzSelect holds Select at Procs 1 (the serial leaf at every size) and
// Procs 2 (the partition loop above 4 096 elements) to a full sort, and
// checks that xs comes back unmodified. The fuzzed words are tiled out
// to n keys so the fuzzer reaches both sides of the 4 096 edge and of
// the leaf's 512-key sampling edge; a nonzero mask ANDs every key with
// it, which leaves at most 256 distinct keys and so many ties around
// the pivot and on the sample's bracket.
func FuzzSelect(f *testing.F) {
	ramp := make([]int64, 64)
	for i := range ramp {
		ramp[i] = int64(i)
	}
	f.Add(encodeKeys(ramp), uint16(5000), uint32(2500), uint8(0), false)
	f.Add(encodeKeys(ramp), uint16(8192), uint32(8191), uint8(3), true)
	f.Add(encodeKeys([]int64{-1, 1 << 62, 7, -(1 << 40)}), uint16(4097), uint32(0), uint8(0), true)
	f.Add(encodeKeys(gen.Ints(40, gen.Uniform, 1)), uint16(4096), uint32(2048), uint8(0xFF), false)
	f.Add([]byte{}, uint16(0), uint32(0), uint8(0), false)
	// The sampled leaf at either end of the rank range, where one side
	// of the bracket is the end of int64's range.
	f.Add(encodeKeys(gen.Ints(200, gen.Uniform, 2)), uint16(8192), uint32(0), uint8(0), false)
	f.Add(encodeKeys(gen.Ints(200, gen.Uniform, 2)), uint16(8192), uint32(8191), uint8(0), false)
	// u == w: a hit answered without quickselect, then a miss.
	f.Add(poisonedTile(), uint16(512), uint32(200), uint8(0xD2), false)
	f.Add(poisonedTile(), uint16(512), uint32(300), uint8(0xD2), false)
	f.Fuzz(func(t *testing.T, data []byte, n uint16, k uint32, mask uint8, two bool) {
		xs := tiledKeys(data, n, mask)
		if xs == nil {
			return
		}
		rank := int(k % uint32(len(xs)))
		sorted := slices.Clone(xs)
		slices.Sort(sorted)
		before := slices.Clone(xs)
		procs := 1
		if two {
			procs = 2
		}
		if got := Select(xs, rank, par.Options{Procs: procs}); got != sorted[rank] {
			t.Fatalf("procs %d n %d k %d mask %#x: Select = %d, want %d", procs, len(xs), rank, mask, got, sorted[rank])
		}
		if !slices.Equal(xs, before) {
			t.Fatalf("procs %d n %d k %d: Select modified xs", procs, len(xs), rank)
		}
	})
}

// FuzzTopK holds Smallest, the top-k kernel's routine, at Procs 1 (the
// serial leaf at every size) and Procs 2 (select plus gather above
// 4 096 keys) to the full sort that top-k's serial oracle runs, for K
// from 0 to n on FuzzSelect's tiledKeys shapes: masks make keys repeat,
// and n reaches both sides of sampledMin and of the 4 096 edge. It
// checks that xs comes back unmodified.
func FuzzTopK(f *testing.F) {
	ramp := make([]int64, 64)
	for i := range ramp {
		ramp[i] = int64(i)
	}
	f.Add(encodeKeys(ramp), uint16(5000), uint32(17), uint8(0), false)
	f.Add(encodeKeys(ramp), uint16(8192), uint32(8192), uint8(3), true)
	f.Add(encodeKeys([]int64{-1, 1 << 62, 7, -(1 << 40)}), uint16(4097), uint32(0), uint8(0), true)
	f.Add(encodeKeys(gen.Ints(40, gen.Uniform, 1)), uint16(4096), uint32(2048), uint8(0xFF), false)
	f.Add(encodeKeys(gen.Ints(200, gen.Uniform, 2)), uint16(1024), uint32(32), uint8(0), false)
	f.Add(encodeKeys(gen.Ints(200, gen.Uniform, 2)), uint16(511), uint32(511), uint8(1), false)
	f.Add(poisonedTile(), uint16(512), uint32(300), uint8(0xD2), false)
	f.Fuzz(func(t *testing.T, data []byte, n uint16, k uint32, mask uint8, two bool) {
		xs := tiledKeys(data, n, mask)
		if xs == nil {
			return
		}
		count := int(k % uint32(len(xs)+1))
		want := slices.Clone(xs)
		slices.Sort(want)
		before := slices.Clone(xs)
		procs := 1
		if two {
			procs = 2
		}
		got := Smallest(make([]int64, 0, count), xs, count, par.Options{Procs: procs})
		if !slices.Equal(got, want[:count]) {
			t.Fatalf("procs %d n %d k %d mask %#x: Smallest differs from the sorted prefix", procs, len(xs), count, mask)
		}
		if !slices.Equal(xs, before) {
			t.Fatalf("procs %d n %d k %d: Smallest modified xs", procs, len(xs), count)
		}
	})
}
