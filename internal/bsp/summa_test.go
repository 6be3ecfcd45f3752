package bsp

import (
	"testing"

	"repro/internal/gen"
	"repro/internal/machine"
	"repro/internal/seq"
)

func TestMatmulSUMMAMatchesSequential(t *testing.T) {
	for _, n := range []int{4, 16, 30, 33} {
		for _, q := range []int{1, 2, 3} {
			a := gen.RandomMatrix(n, n, uint64(n))
			b := gen.RandomMatrix(n, n, uint64(n)+1)
			got, stats := MatmulSUMMAOn(nil, a.Data, b.Data, n, q)
			want := seq.Matmul(a, b)
			for i := range want.Data {
				d := got[i] - want.Data[i]
				if d > 1e-9 || d < -1e-9 {
					t.Fatalf("n=%d q=%d: mismatch at %d", n, q, i)
				}
			}
			if stats.Supersteps() != q+1 {
				t.Fatalf("n=%d q=%d: supersteps = %d, want %d", n, q, stats.Supersteps(), q+1)
			}
		}
	}
}

func TestSUMMACommunicationBeatsRowBlock(t *testing.T) {
	// The headline property: at equal processor count P = q², SUMMA
	// moves ~√P times fewer words than the 1D row-block algorithm.
	const n, q = 64, 4 // P = 16
	a := gen.RandomMatrix(n, n, 1)
	b := gen.RandomMatrix(n, n, 2)
	_, summa := MatmulSUMMAOn(nil, a.Data, b.Data, n, q)
	_, rowblk := MatmulRowBlockOn(nil, a.Data, b.Data, n, q*q)
	if summa.TotalH() >= rowblk.TotalH() {
		t.Fatalf("SUMMA h = %v not below row-block h = %v", summa.TotalH(), rowblk.TotalH())
	}
	ratio := rowblk.TotalH() / summa.TotalH()
	if ratio < 2 {
		t.Fatalf("communication ratio = %v, want >= 2 (√P-ish)", ratio)
	}
	// Same compute volume per processor class: total W within 2x.
	if summa.TotalW() > 2*rowblk.TotalW() || rowblk.TotalW() > 2*summa.TotalW() {
		t.Fatalf("W diverged: summa %v vs rowblock %v", summa.TotalW(), rowblk.TotalW())
	}
}

func TestSUMMACostScalesWithGrid(t *testing.T) {
	const n = 60
	a := gen.RandomMatrix(n, n, 3)
	b := gen.RandomMatrix(n, n, 4)
	params := machine.BSPParams{G: 2, L: 2000}
	_, s1 := MatmulSUMMAOn(nil, a.Data, b.Data, n, 1)
	_, s3 := MatmulSUMMAOn(nil, a.Data, b.Data, n, 3)
	params.P = 1
	c1 := s1.Cost(params)
	params.P = 9
	c9 := s3.Cost(params)
	if c9 >= c1 {
		t.Fatalf("9-proc SUMMA cost %v not below 1-proc %v", c9, c1)
	}
}
