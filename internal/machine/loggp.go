package machine

import "math"

// LogGP (Alexandrov et al. 1995) extends LogP with a Gap-per-byte
// parameter for long messages: sending k words costs o + (k-1)·G + L + o
// instead of k short-message sends. The extension matters for exactly
// the kernels whose BSP h-relations are dominated by bulk payloads
// (matrix panels, bucket exchanges), and experiment E9's sample-sort
// misprediction is the empirical motivation: a single per-word gap
// cannot model both sparse and bulk traffic.
type LogGPParams struct {
	L  float64 // latency
	O  float64 // per-message overhead
	G  float64 // gap between short messages
	GG float64 // Gap per word within a long message (bandwidth term)
	P  int
}

// LongMessage returns the cost of one k-word message under LogGP.
func (p LogGPParams) LongMessage(k int) float64 {
	if k <= 0 {
		return 0
	}
	return p.O + float64(k-1)*p.GG + p.L + p.O
}

// ShortMessages returns the cost of sending k words as k separate
// messages (the LogP way) for comparison.
func (p LogGPParams) ShortMessages(k int) float64 {
	if k <= 0 {
		return 0
	}
	gap := math.Max(p.O, p.G)
	return float64(k-1)*gap + p.O + p.L + p.O
}

// BulkAdvantage returns the ratio ShortMessages(k)/LongMessage(k) — how
// much message aggregation buys at payload size k.
func (p LogGPParams) BulkAdvantage(k int) float64 {
	lm := p.LongMessage(k)
	if lm == 0 {
		return 0
	}
	return p.ShortMessages(k) / lm
}
