package machine

import (
	"math"
	"testing"
	"testing/quick"
)

func TestWorkDepthCompose(t *testing.T) {
	a := WorkDepth{Work: 10, Depth: 2}
	b := WorkDepth{Work: 6, Depth: 5}
	if s := a.Seq(b); s.Work != 16 || s.Depth != 7 {
		t.Fatalf("Seq = %+v", s)
	}
	if p := a.Par(b); p.Work != 16 || p.Depth != 5 {
		t.Fatalf("Par = %+v", p)
	}
}

func TestBrentBounds(t *testing.T) {
	wd := WorkDepth{Work: 1000, Depth: 10}
	if got := wd.Brent(1); got != 1010 {
		t.Fatalf("Brent(1) = %v", got)
	}
	if got := wd.Brent(0); got != wd.Brent(1) {
		t.Fatal("Brent must clamp p < 1")
	}
	// Monotone non-increasing in p, floored at depth.
	prev := math.Inf(1)
	for p := 1; p <= 1024; p *= 2 {
		cur := wd.Brent(p)
		if cur > prev {
			t.Fatalf("Brent not monotone at p=%d", p)
		}
		if cur < wd.Depth {
			t.Fatalf("Brent below depth at p=%d", p)
		}
		prev = cur
	}
}

func TestSpeedupSaturates(t *testing.T) {
	wd := ScanWD(1 << 20)
	s1 := wd.Speedup(1)
	s64 := wd.Speedup(64)
	sInf := wd.Work / wd.Depth
	if s64 <= s1 {
		t.Fatal("speedup should grow with p")
	}
	if wd.Speedup(1<<30) > sInf+1e-9 {
		t.Fatal("speedup exceeded W/D asymptote")
	}
}

func TestKernelWDShapes(t *testing.T) {
	// Work-inefficiency of pointer jumping: ListRank work / n grows with
	// n while Scan work / n is constant.
	r1 := ListRankWD(1<<10).Work / float64(1<<10)
	r2 := ListRankWD(1<<20).Work / float64(1<<20)
	if r2 <= r1 {
		t.Fatal("list ranking should be work-inefficient (n log n)")
	}
	s1 := ScanWD(1<<10).Work / float64(1<<10)
	s2 := ScanWD(1<<20).Work / float64(1<<20)
	if math.Abs(s1-s2) > 1e-9 {
		t.Fatal("scan should be linear work")
	}
	if MatmulWD(100).Work != 2e6 {
		t.Fatalf("MatmulWD(100).Work = %v", MatmulWD(100).Work)
	}
	if CCWD(10, 20).Work <= 0 || SortWD(1000).Depth <= 0 {
		t.Fatal("degenerate kernel costs")
	}
}

func TestBSPCost(t *testing.T) {
	p := BSPParams{P: 4, G: 2, L: 100}
	s := Superstep{W: 50, H: 10}
	if got := p.Cost(s); got != 50+2*10+100 {
		t.Fatalf("Cost = %v", got)
	}
	if got := p.TotalCost([]Superstep{s, s}); got != 2*170 {
		t.Fatalf("TotalCost = %v", got)
	}
}

func TestLogPBroadcastProperties(t *testing.T) {
	base := LogPParams{L: 10, O: 2, G: 4}
	prev := 0.0
	for np := 1; np <= 64; np *= 2 {
		p := base
		p.P = np
		cost := p.Broadcast()
		if np == 1 && cost != 0 {
			t.Fatalf("broadcast to self costs %v", cost)
		}
		if cost < prev {
			t.Fatalf("broadcast cost not monotone in P at %d", np)
		}
		prev = cost
	}
	// Broadcast over a tree must beat naive sequential sends for large P.
	p := base
	p.P = 64
	naive := float64(p.P-1)*math.Max(p.O, p.G) + p.O + p.L + p.O
	if p.Broadcast() >= naive {
		t.Fatalf("tree broadcast (%v) not better than naive (%v)", p.Broadcast(), naive)
	}
}

func TestSeqParQuickProperties(t *testing.T) {
	f := func(w1, d1, w2, d2 uint16) bool {
		a := WorkDepth{Work: float64(w1), Depth: float64(d1)}
		b := WorkDepth{Work: float64(w2), Depth: float64(d2)}
		s, p := a.Seq(b), a.Par(b)
		// Parallel composition never slower than sequential in depth,
		// equal in work.
		return p.Depth <= s.Depth && p.Work == s.Work
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
