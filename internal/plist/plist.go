package plist

import (
	"repro/internal/adapt"
	"repro/internal/gen"
	"repro/internal/par"
	"repro/internal/scratch"
)

// Adaptive call sites: the jump rounds dominate Rank, so they carry
// their own identity; the init/finish element loops share another.
var (
	siteListJump = adapt.NewSite("plist.Rank.jump", adapt.KindWorkers)
	siteListElem = adapt.NewSite("plist.Rank.elem", adapt.KindRange)
)

// Rank returns each node's distance from the head (head = 0) using
// synchronous pointer jumping with double buffering: every round halves
// the remaining pointer distance, so ceil(log2 n) rounds suffice. The
// four double-buffered jump arrays are scratch-pooled; only the
// returned ranks are freshly allocated.
func Rank(l *gen.List, opts par.Options) []int {
	n := len(l.Next)
	if n == 0 {
		return nil
	}
	a := scratch.AcquireArena(opts.ScratchPool())
	defer a.Release()
	elemOpts := opts
	elemOpts.Site = siteListElem
	jumpOpts := opts
	jumpOpts.Site = siteListJump
	// dist[i] counts links from i to the tail; next doubles each round.
	next := scratch.Make[int](a, n)
	dist := scratch.MakeZeroed[int](a, n)
	par.For(n, elemOpts, func(i int) {
		next[i] = l.Next[i]
		if l.Next[i] != i {
			dist[i] = 1
		}
	})
	next2 := scratch.Make[int](a, n)
	dist2 := scratch.Make[int](a, n)
	for {
		changed := par.Count(n, jumpOpts, func(i int) bool {
			if next[i] == i {
				// Tail fixpoint: already fully ranked.
				dist2[i] = dist[i]
				next2[i] = i
				return false
			}
			// Jump: accumulate the successor's distance and double the
			// pointer. Reads go to the previous round's arrays only, so
			// the round is a synchronous PRAM step with no races.
			dist2[i] = dist[i] + dist[next[i]]
			next2[i] = next[next[i]]
			return next2[i] != next[i] || dist2[i] != dist[i]
		})
		next, next2 = next2, next
		dist, dist2 = dist2, dist
		if changed == 0 {
			break
		}
	}
	// dist is now distance-to-tail; convert to distance-from-head.
	total := dist[l.Head]
	ranks := make([]int, n)
	par.For(n, elemOpts, func(i int) { ranks[i] = total - dist[i] })
	return ranks
}
