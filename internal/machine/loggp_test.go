package machine

import (
	"math"
	"testing"
)

func TestLongMessageCost(t *testing.T) {
	p := LogGPParams{L: 10, O: 2, G: 4, GG: 0.5, P: 8}
	if got := p.LongMessage(1); got != 2+10+2 {
		t.Fatalf("LongMessage(1) = %v", got)
	}
	if got := p.LongMessage(101); got != 2+100*0.5+10+2 {
		t.Fatalf("LongMessage(101) = %v", got)
	}
	if p.LongMessage(0) != 0 || p.ShortMessages(0) != 0 {
		t.Fatal("zero-length messages should be free")
	}
}

func TestBulkAdvantageGrowsWithSize(t *testing.T) {
	p := LogGPParams{L: 10, O: 2, G: 4, GG: 0.1, P: 8}
	a1 := p.BulkAdvantage(1)
	a100 := p.BulkAdvantage(100)
	a10000 := p.BulkAdvantage(10000)
	if !(a1 <= a100 && a100 < a10000) {
		t.Fatalf("bulk advantage not growing: %v %v %v", a1, a100, a10000)
	}
	// Asymptotically the ratio approaches gap/GG = 4/0.1 = 40.
	if math.Abs(a10000-40) > 2 {
		t.Fatalf("asymptotic advantage = %v, want ~40", a10000)
	}
}
