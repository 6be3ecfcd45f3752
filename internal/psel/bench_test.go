package psel

import (
	"fmt"
	"testing"

	"repro/internal/gen"
	"repro/internal/par"
	"repro/internal/rng"
)

var selectSink int64

// BenchmarkSelectRanks times Select at Procs 1, the serial leaf every
// serve batch slot runs, on select's Gen keys (uniform 64-bit) across
// sizes and ranks, and on dupShapes at 1 Ki and 8 Ki. Rank 1 is the
// cheapest quickselect can get; 31 is topk's highest threshold rank (K
// is 16..32); n/2 is the most expensive; "drawn" cycles through 64
// ranks drawn uniformly from [0, n), the way select's Gen derives its
// rank from the seed bench/ passes it. Every iteration selects from a
// different window of one 2n-key array, as bench/ never repeats an
// input: on a repeated input a branch predictor learns the comparisons
// of a branching partition, and at 1 Ki a row read 2-3x fast. The 256-
// and 512-key rows straddle sampledMin; sampleSize was read off the
// 8 Ki and 64 Ki rows.
func BenchmarkSelectRanks(b *testing.B) {
	o := par.Options{Procs: 1}
	type input struct {
		name string
		n    int
		keys []int64
	}
	var inputs []input
	for _, n := range []int{1 << 8, 1 << 9, 1 << 10, 1 << 13, 1 << 16} {
		inputs = append(inputs, input{fmt.Sprintf("n=%d", n), n, gen.Ints(2*n, gen.Uniform, 1)})
	}
	for _, s := range dupShapes {
		for _, n := range []int{1 << 10, 1 << 13} {
			inputs = append(inputs, input{fmt.Sprintf("%s/n=%d", s.name, n), n, s.gen(2 * n)})
		}
	}
	for _, in := range inputs {
		n, keys := in.n, in.keys
		drawn := make([]int, 64)
		r := rng.New(uint64(n))
		for i := range drawn {
			drawn[i] = r.Intn(n)
		}
		for _, rank := range []struct {
			name  string
			ranks []int
		}{
			{"1", []int{1}},
			{"31", []int{31}},
			{"half", []int{n / 2}},
			{"drawn", drawn},
		} {
			b.Run(fmt.Sprintf("%s/rank=%s", in.name, rank.name), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					off := i * 997 % n
					selectSink = Select(keys[off:off+n], rank.ranks[i%len(rank.ranks)], o)
				}
			})
		}
	}
}

// dupShapes are the duplicate-heavy inputs BenchmarkSelectRanks times
// beside uniform keys: uniform keys masked to 2 bits (four values) and
// all-equal keys. Without quickselect's equal-key split, a round whose
// pivot is its range's minimum makes no progress, so these inputs would
// spend the round budget and end in its sort fallback.
var dupShapes = []struct {
	name string
	gen  func(n int) []int64
}{
	{"few-unique", func(n int) []int64 {
		xs := gen.Ints(n, gen.Uniform, 5)
		for i := range xs {
			xs[i] &= 3
		}
		return xs
	}},
	{"all-equal", func(n int) []int64 {
		xs := make([]int64, n)
		for i := range xs {
			xs[i] = -7
		}
		return xs
	}},
}
