package pipeline

import (
	"encoding/binary"
	"sort"
	"testing"

	"repro/internal/par"
)

// FuzzPipelineVsOneShot cross-checks the full streaming pipeline
// against the one-shot kernel composition oracle under fuzzer-chosen
// chunk sizes, queue depths and adversarial inputs: tiny chunks (down
// to 1 element), streams that don't divide evenly, duplicate-heavy and
// extreme values. Every divergence — ordering, carry handling across
// chunk boundaries, the sort stage's gathering, top-k pruning — is a crash
// for the fuzzer.
func FuzzPipelineVsOneShot(f *testing.F) {
	f.Add(uint8(0), uint8(0), uint8(0), []byte{})
	f.Add(uint8(1), uint8(1), uint8(3), []byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Add(uint8(7), uint8(2), uint8(40), []byte("the quick brown fox jumps over the lazy dog, twice over"))
	f.Add(uint8(255), uint8(3), uint8(200),
		[]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0, 0, 0, 0, 0x80})

	f.Fuzz(func(t *testing.T, csRaw, qdRaw, kRaw uint8, data []byte) {
		cs := 1 + int(csRaw)%300
		qd := 1 + int(qdRaw)%4
		xs := make([]int64, len(data)/8)
		for i := range xs {
			xs[i] = int64(binary.LittleEndian.Uint64(data[i*8:]))
		}
		cfg := Config{ChunkSize: cs, QueueDepth: qd,
			Opts: par.Options{Procs: 4, SerialCutoff: 1, Grain: 16}}

		mapF := func(v int64) int64 { return v ^ 0x5bf0363db49d9b17 }
		pred := func(v int64) bool { return v&3 != 0 }

		// Oracle: one-shot composition on materialized intermediates.
		var mapped []int64
		for _, v := range xs {
			if m := mapF(v); pred(m) {
				mapped = append(mapped, m)
			}
		}
		wantScan := append([]int64(nil), mapped...)
		var acc int64
		for i, v := range wantScan {
			acc += v
			wantScan[i] = acc
		}
		wantSorted := append([]int64(nil), wantScan...)
		sort.Slice(wantSorted, func(i, j int) bool { return wantSorted[i] < wantSorted[j] })

		var got []int64
		err := New(cfg).FromSlice(xs).Map(mapF).Filter(pred).RunningSum().Sort().To(&got).Run()
		if err != nil {
			t.Fatalf("pipeline: %v", err)
		}
		if len(got) != len(wantSorted) {
			t.Fatalf("cs=%d qd=%d n=%d: pipeline emitted %d elements, oracle %d",
				cs, qd, len(xs), len(got), len(wantSorted))
		}
		for i := range got {
			if got[i] != wantSorted[i] {
				t.Fatalf("cs=%d qd=%d n=%d: [%d] = %d, oracle %d",
					cs, qd, len(xs), i, got[i], wantSorted[i])
			}
		}

		// TopK against the oracle's sorted prefix.
		if len(xs) > 0 {
			k := 1 + int(kRaw)%(len(xs)+8) // sometimes > stream length
			var topk []int64
			err := New(cfg).FromSlice(xs).Map(mapF).Filter(pred).TopK(k).To(&topk).Run()
			if err != nil {
				t.Fatalf("topk pipeline: %v", err)
			}
			want := wantSortedOf(mapped)
			if k < len(want) {
				want = want[:k]
			}
			if len(topk) != len(want) {
				t.Fatalf("topk k=%d: got %d elements, want %d", k, len(topk), len(want))
			}
			for i := range topk {
				if topk[i] != want[i] {
					t.Fatalf("topk k=%d: [%d] = %d, want %d", k, i, topk[i], want[i])
				}
			}
		}
	})
}

func wantSortedOf(xs []int64) []int64 {
	out := append([]int64(nil), xs...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
