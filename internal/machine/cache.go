package machine

// CacheModel is a single-level idealized cache (capacity in float64
// words, line length in words, full associativity, LRU) used to *derive*
// the blocked-matmul design rather than guess at it: the methodology
// requires that the blocking factor come from a model, with the
// measurement (experiment E7) confirming or refuting it.
type CacheModel struct {
	// Words is the cache capacity in 8-byte words.
	Words int
	// Line is the line length in words.
	Line int
}

// MatmulNaiveMisses estimates cache misses for the naive i-k-j triple
// loop on n×n matrices. Per (i, k) iteration the kernel streams row k of
// B (n/L misses when B no longer fits) and row i of C; row i of A is
// reused across k. Two regimes:
//
//   - B fits (n² + 2n ≤ cache): every matrix is loaded once, ≈ 3n²/L.
//   - B does not fit: B's row is evicted between i-iterations, so B is
//     re-streamed per i: ≈ (n³ + 2n²)/L.
func (c CacheModel) MatmulNaiveMisses(n int) float64 {
	nf := float64(n)
	lf := float64(c.Line)
	if n*n+2*n <= c.Words {
		return 3 * nf * nf / lf
	}
	return (nf*nf*nf + 2*nf*nf) / lf
}

// MatmulBlockedMisses estimates misses for b×b tiling: each of the
// (n/b)³ tile multiplications touches 3b² words, loaded once if three
// tiles fit (3b² ≤ cache):
//
//	misses ≈ (n/b)³ · 3b²/L = 3n³/(b·L).
//
// If the tiles do not fit the model degrades to the naive count.
func (c CacheModel) MatmulBlockedMisses(n, b int) float64 {
	if b <= 0 || 3*b*b > c.Words {
		return c.MatmulNaiveMisses(n)
	}
	if b > n {
		b = n
	}
	nf, bf, lf := float64(n), float64(b), float64(c.Line)
	return 3 * nf * nf * nf / (bf * lf)
}

// BestBlock returns the largest block size (a multiple of the line
// length) whose three tiles fit in cache — the model's prescription for
// the blocking factor, to be validated by E7's sweep.
func (c CacheModel) BestBlock() int {
	b := c.Line
	for 3*(b+c.Line)*(b+c.Line) <= c.Words {
		b += c.Line
	}
	return b
}

// BlockingSpeedupModel returns the predicted miss-ratio improvement of
// blocking with factor b over the naive loop (values > 1 mean blocking
// wins). In the regime where B fits in cache it returns <= 1: the model
// itself predicts blocking cannot help — the situation E7 measures on
// hosts with large last-level caches.
func (c CacheModel) BlockingSpeedupModel(n, b int) float64 {
	blocked := c.MatmulBlockedMisses(n, b)
	if blocked == 0 {
		return 0
	}
	return c.MatmulNaiveMisses(n) / blocked
}
