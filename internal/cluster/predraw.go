package cluster

// The pre-draw (DESIGN.md §14): the per-query lookup draws, a cluster
// run's dominant cost, are pure functions of (Seed, query, table) — and
// in the open loop of the arrival's user attribution — so they are
// computed ahead of the event loop that consumes them, over the
// execution backend's workers. Both loops pull arrival times and user
// attributions sequentially into a ring a block at a time and fill
// every entry's lookup split concurrently; the closed loop's last block
// holds only the queries that remain. Any partitioning of a block
// yields the same draws, so the output is byte-identical at any worker
// count.

import "math"

// ringArrival is one pre-drawn ring entry: the arrival's instant, user
// attribution, and lookup split (its per-owner cold counts live in the
// flat ring buffer alongside).
type ringArrival struct {
	t     float64
	user  uint64
	visit int
	hot   int
	warm  int
}

// predrawBlock is the pre-draw ring's refill granularity. Open-loop
// draws past the horizon are wasted work at most once, at the end of
// the run.
var predrawBlock = 256

// ringFill refills the pre-draw ring: arrival times and user
// attributions pulled sequentially from the shared streams, lookup
// splits computed over parts workers. Ring entry i is arrival number
// r.q+i — the ring only refills when fully drained, so the base index
// is the live counter. Once a closed-loop run has drawn all its
// queries the ring comes back empty and the next arrival never comes.
func (r *loopRun) ringFill(parts int) {
	n := predrawBlock
	if r.limit > 0 {
		n = min(n, r.limit-r.q)
	}
	// Size both buffers on their own: a recycled arena may carry a full
	// ring whose cold buffer was sized for a smaller fleet.
	r.ring = arenaSlice(&r.ring, n)
	r.ringCold = arenaSlice(&r.ringCold, n*r.plan.Nodes)
	r.ringHead = 0
	if n == 0 {
		r.nextArr = math.Inf(1)
		return
	}
	for i := range r.ring {
		a := &r.ring[i]
		a.t = r.src.Next()
		a.user, a.visit = uint64(r.q+i), 1
		if r.visitors != nil {
			a.user, a.visit = r.visitors.Next()
		}
	}
	if parts = min(parts, n); parts == 1 {
		r.drawRing(0, n)
	} else {
		runParts(n, parts, r.drawRing)
	}
	r.nextArr = r.ring[0].t
}

// drawRing fills ring entries [lo, hi)'s lookup splits.
func (r *loopRun) drawRing(lo, hi int) {
	nodes := r.plan.Nodes
	for i := lo; i < hi; i++ {
		a := &r.ring[i]
		a.hot, a.warm = r.drawArrival(r.q+i, a.user, a.visit, r.ringCold[i*nodes:(i+1)*nodes])
	}
}
