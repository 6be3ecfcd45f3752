package machine

import "testing"

// l1ish is a 32 KiB, 64-byte-line cache in word units.
var l1ish = CacheModel{Words: 4096, Line: 8}

func TestMatmulNaiveMissRegimes(t *testing.T) {
	// Small n: everything fits, one streaming pass per matrix.
	small := l1ish.MatmulNaiveMisses(32) // 3*32² words
	if small != 3*32*32/8 {
		t.Fatalf("small-n misses = %v", small)
	}
	// Large n: B re-streamed per row — cubic misses.
	big := l1ish.MatmulNaiveMisses(512)
	if big < 512*512*512/8 {
		t.Fatalf("large-n misses = %v, want cubic regime", big)
	}
}

func TestMatmulBlockedBeatsNaiveWhenBSpills(t *testing.T) {
	n := 512
	b := l1ish.BestBlock()
	adv := l1ish.BlockingSpeedupModel(n, b)
	if adv <= 1 {
		t.Fatalf("blocking advantage = %v, want > 1 when B spills", adv)
	}
	// In the fits-in-cache regime the model predicts no win.
	if l1ish.BlockingSpeedupModel(32, 16) > 1 {
		t.Fatal("model predicts blocking win when everything fits")
	}
}

func TestBlockedMissFormula(t *testing.T) {
	n, b := 256, 16
	want := 3.0 * 256 * 256 * 256 / (16 * 8)
	if got := l1ish.MatmulBlockedMisses(n, b); got != want {
		t.Fatalf("blocked misses = %v, want %v", got, want)
	}
	// Oversized tiles degrade to naive.
	if l1ish.MatmulBlockedMisses(256, 4000) != l1ish.MatmulNaiveMisses(256) {
		t.Fatal("oversized block did not fall back to naive")
	}
	if l1ish.MatmulBlockedMisses(256, 0) != l1ish.MatmulNaiveMisses(256) {
		t.Fatal("b=0 did not fall back")
	}
}

func TestBestBlockFitsThreeTiles(t *testing.T) {
	b := l1ish.BestBlock()
	if b%l1ish.Line != 0 {
		t.Fatalf("best block %d not line-aligned", b)
	}
	if 3*b*b > l1ish.Words {
		t.Fatalf("best block %d: three tiles spill", b)
	}
	next := b + l1ish.Line
	if 3*next*next <= l1ish.Words {
		t.Fatalf("best block %d not maximal", b)
	}
}

func TestBlockedMissesMonotoneInBlock(t *testing.T) {
	prev := l1ish.MatmulBlockedMisses(512, 8)
	for _, b := range []int{16, 24, 32} {
		cur := l1ish.MatmulBlockedMisses(512, b)
		if cur >= prev {
			t.Fatalf("misses not decreasing with block size at b=%d", b)
		}
		prev = cur
	}
}
