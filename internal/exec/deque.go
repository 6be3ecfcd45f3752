package exec

import (
	"sync"
	"sync/atomic"

	"repro/internal/rng"
)

// Deque is a mutex-protected double-ended work queue, the unified task
// container for both the executor's workers and the fork/join scheduler
// slots in internal/sched. The owner pushes and pops at the bottom
// (LIFO, for locality); thieves steal from the top (FIFO, taking the
// oldest — and for recursive decompositions the largest — work first).
//
// Storage is a slice with an explicit head index. A steal advances the
// head instead of reslicing the backing array away (which would
// permanently discard the capacity in front of the head, so steady
// steal/push traffic would reallocate indefinitely); when the dead
// prefix grows past half the slice it is compacted in place, keeping
// pushes amortized allocation-free at steady state.
//
// A lock-free Chase–Lev deque would shave constants, but the mutex
// version is correct by construction, contention is low when grain
// sizes are right (exactly what experiment E12 measures), and the
// engineering methodology prefers the simplest implementation that
// meets the performance model.
type Deque[T any] struct {
	mu    sync.Mutex
	items []T
	head  int // index of the oldest live item; entries before it are dead
}

// compactThreshold is the dead-prefix length below which StealTop does
// not bother compacting (it also skips compaction while the live half
// dominates, so compaction cost is amortized O(1) per steal).
const compactThreshold = 32

// PushBottom appends an item at the owner's end.
func (d *Deque[T]) PushBottom(t T) {
	d.mu.Lock()
	d.items = append(d.items, t)
	d.mu.Unlock()
}

// PopBottom removes the most recently pushed item (owner side).
func (d *Deque[T]) PopBottom() (T, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	n := len(d.items)
	if d.head >= n {
		var zero T
		return zero, false
	}
	t := d.items[n-1]
	var zero T
	d.items[n-1] = zero
	d.items = d.items[:n-1]
	if d.head == len(d.items) {
		// Empty: rewind over the dead prefix so its capacity is reused.
		d.items = d.items[:0]
		d.head = 0
	}
	return t, true
}

// StealTop removes the oldest item (thief side).
func (d *Deque[T]) StealTop() (T, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.head >= len(d.items) {
		var zero T
		return zero, false
	}
	t := d.items[d.head]
	var zero T
	d.items[d.head] = zero
	d.head++
	switch {
	case d.head == len(d.items):
		d.items = d.items[:0]
		d.head = 0
	case d.head >= compactThreshold && d.head*2 >= len(d.items):
		n := copy(d.items, d.items[d.head:])
		tail := d.items[n:]
		for i := range tail {
			tail[i] = zero
		}
		d.items = d.items[:n]
		d.head = 0
	}
	return t, true
}

// StealScan probes the n deques returned by deque(i) from a random
// starting victim, skipping self, until one yields an item or all are
// empty — the victim-selection discipline shared by the executor's
// workers and the sched lanes. Each probe bumps attempts; a hit bumps
// steals.
func StealScan[T any](deque func(i int) *Deque[T], n, self int, rnd *rng.Rand, attempts, steals *atomic.Int64) (T, bool) {
	if n > 1 {
		start := rnd.Intn(n)
		for k := 0; k < n; k++ {
			v := (start + k) % n
			if v == self {
				continue
			}
			attempts.Add(1)
			if t, ok := deque(v).StealTop(); ok {
				steals.Add(1)
				return t, true
			}
		}
	}
	var zero T
	return zero, false
}
