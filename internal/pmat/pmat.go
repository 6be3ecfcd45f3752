package pmat

import (
	"repro/internal/gen"
	"repro/internal/par"
)

// DefaultBlock is the block size used when Config.Block is unset; 64
// doubles of one operand row fit comfortably in L1 alongside the output.
const DefaultBlock = 64

// Config tunes the parallel kernel.
type Config struct {
	// Block is the tile edge length (<= 0 means DefaultBlock).
	Block int
	// Opts selects workers/schedule for the row-block loop.
	Opts par.Options
}

func (c Config) block() int {
	if c.Block > 0 {
		return c.Block
	}
	return DefaultBlock
}

// Mul computes C = A·B with tiled loops parallelized over row blocks.
// Within a tile the loop order is i-k-j so the innermost loop streams
// contiguous rows of B and C.
func Mul(a, b *gen.Matrix, cfg Config) *gen.Matrix {
	if a.Cols != b.Rows {
		panic("pmat: dimension mismatch")
	}
	c := gen.NewMatrix(a.Rows, b.Cols)
	bs := cfg.block()
	rowBlocks := (a.Rows + bs - 1) / bs
	par.For(rowBlocks, cfg.Opts, func(bi int) {
		i0 := bi * bs
		i1 := min(i0+bs, a.Rows)
		// Tile over k and j for cache reuse of B.
		for k0 := 0; k0 < a.Cols; k0 += bs {
			k1 := min(k0+bs, a.Cols)
			for j0 := 0; j0 < b.Cols; j0 += bs {
				j1 := min(j0+bs, b.Cols)
				for i := i0; i < i1; i++ {
					arow := a.Row(i)
					crow := c.Row(i)
					for k := k0; k < k1; k++ {
						aik := arow[k]
						brow := b.Row(k)
						for j := j0; j < j1; j++ {
							crow[j] += aik * brow[j]
						}
					}
				}
			}
		}
	})
	return c
}

// MulNaive is the unblocked parallel version (rows distributed, i-k-j
// order, no tiling) — the ablation partner for E7.
func MulNaive(a, b *gen.Matrix, opts par.Options) *gen.Matrix {
	if a.Cols != b.Rows {
		panic("pmat: dimension mismatch")
	}
	c := gen.NewMatrix(a.Rows, b.Cols)
	par.For(a.Rows, opts, func(i int) {
		arow := a.Row(i)
		crow := c.Row(i)
		for k := 0; k < a.Cols; k++ {
			aik := arow[k]
			brow := b.Row(k)
			for j := 0; j < b.Cols; j++ {
				crow[j] += aik * brow[j]
			}
		}
	})
	return c
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
