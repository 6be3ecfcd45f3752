package psort

import (
	"encoding/binary"
	"sync/atomic"
	"testing"

	"repro/internal/par"
	"repro/internal/seq"
)

// fuzzSchedules are the options successive fuzz executions sort
// under, in turn, the way an online tuner moves between calls: serial,
// each worker share, and merge sort's leaf grain from 256 to 16 Ki.
// The output must match the sequential oracle under every one.
var fuzzSchedules = []par.Options{
	{Procs: 1},
	{Procs: 2},
	{Procs: 4},
	{Procs: 4, Grain: 256},
	{Procs: 4, Grain: 16384},
}

// fuzzRound counts fuzz executions across the engine's workers.
var fuzzRound atomic.Uint64

// decodeKeys turns fuzz bytes into int64 keys (8 bytes each, tail
// bytes dropped).
func decodeKeys(data []byte) []int64 {
	xs := make([]int64, len(data)/8)
	for i := range xs {
		xs[i] = int64(binary.LittleEndian.Uint64(data[i*8:]))
	}
	return xs
}

func encodeKeys(xs []int64) []byte {
	data := make([]byte, len(xs)*8)
	for i, x := range xs {
		binary.LittleEndian.PutUint64(data[i*8:], uint64(x))
	}
	return data
}

// FuzzSortAdaptive cross-checks every parallel sort, under a schedule
// that changes from one execution to the next (fuzzSchedules), against
// the sequential oracle on fuzzer-mutated inputs, seeded with the
// classic adversarial shapes.
func FuzzSortAdaptive(f *testing.F) {
	sorted := make([]int64, 600)
	reverse := make([]int64, 600)
	equal := make([]int64, 600)
	singleRun := make([]int64, 600)
	for i := range sorted {
		sorted[i] = int64(i)
		reverse[i] = int64(len(reverse) - i)
		equal[i] = 42
		// One sorted run with a single displaced element at the end —
		// the "almost sorted" shape that trips lazy cutoff logic.
		singleRun[i] = int64(i)
	}
	singleRun[len(singleRun)-1] = -1
	f.Add(encodeKeys(sorted))
	f.Add(encodeKeys(reverse))
	f.Add(encodeKeys(equal))
	f.Add(encodeKeys(singleRun))
	f.Add(encodeKeys([]int64{}))
	f.Add(encodeKeys([]int64{1 << 62, -(1 << 62), 0, -1, 1}))

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<16 {
			data = data[:1<<16]
		}
		xs := decodeKeys(data)
		want := append([]int64(nil), xs...)
		seq.Quicksort(want)
		opts := fuzzSchedules[fuzzRound.Add(1)%uint64(len(fuzzSchedules))]
		for _, s := range []struct {
			name string
			sort func([]int64, par.Options)
		}{{"samplesort", SampleSort}, {"mergesort", MergeSort}, {"radix", RadixSort}} {
			got := append([]int64(nil), xs...)
			s.sort(got, opts)
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("%s: [%d] = %d, want %d (n=%d)", s.name, i, got[i], want[i], len(xs))
				}
			}
		}
	})
}
