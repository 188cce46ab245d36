package cluster

// The pre-draw (DESIGN.md §14): the per-query lookup draws, a cluster
// run's dominant cost, are pure functions of (Seed, query, table) — and
// in the open loop of the arrival's user attribution — so they are
// computed ahead of the event loop that consumes them, over the
// execution backend's workers. The closed loop draws its whole query
// range before scheduling any copy; the open loop pulls arrival times
// and user attributions sequentially into a ring a block at a time and
// fills every entry's lookup split concurrently. Any partitioning of
// the range yields the same draws, so the output is byte-identical at
// any worker count.

import (
	"dlrmsim/internal/stats"
	"dlrmsim/internal/trace"
)

// drawQuery draws query q's per-table lookups and splits them by the
// plan: cold (len Nodes, overwritten) receives per-owner cold-lookup
// counts and the return value is the replicated-hot count.
func (s *simState) drawQuery(zipf *stats.Zipf, draws, q int, cold []int) (hot int) {
	for n := range cold {
		cold[n] = 0
	}
	model := s.plan.Model
	for t := 0; t < model.Tables; t++ {
		rng := stats.SeededRNG(stats.SplitSeed(s.cfg.Seed^0x100C, uint64(q*model.Tables+t)))
		for l := 0; l < draws; l++ {
			var r int
			switch s.cfg.Hotness {
			case trace.OneItem:
				// rank 0, the single hot row
			case trace.RandomAccess:
				r = rng.Intn(model.RowsPerTable)
			default:
				r = zipf.SampleWith(&rng)
			}
			if s.plan.Replicated(r) {
				hot++
			} else {
				cold[s.plan.Owner(t, s.plan.rowOfRank(t, r))]++
			}
		}
	}
	return hot
}

// drawQueries fills hot[q] and cold[q*Nodes:(q+1)*Nodes] with what
// drawQuery produces for every q in [lo, hi).
func (s *simState) drawQueries(zipf *stats.Zipf, draws, lo, hi int, hot, cold []int) {
	nodes := s.plan.Nodes
	for q := lo; q < hi; q++ {
		hot[q] = s.drawQuery(zipf, draws, q, cold[q*nodes:(q+1)*nodes])
	}
}

// predrawQueries computes every query's lookup split over parts
// workers.
func (s *simState) predrawQueries(zipf *stats.Zipf, draws, queries, parts int, hot, cold []int) {
	if parts == 1 {
		s.drawQueries(zipf, draws, 0, queries, hot, cold)
		return
	}
	runParts(queries, parts, func(lo, hi int) { s.drawQueries(zipf, draws, lo, hi, hot, cold) })
}

// openArrival is one pre-drawn ring entry: the arrival's instant, user
// attribution, and lookup split (its per-owner cold counts live in the
// flat ring buffer alongside).
type openArrival struct {
	t     float64
	user  uint64
	visit int
	hot   int
	warm  int
}

// openPredrawBlock is the pre-draw ring's refill granularity. Draws
// past the horizon are wasted work at most once, at the end of the run.
var openPredrawBlock = 256

// ringFill refills the pre-draw ring: arrival times and user
// attributions pulled sequentially from the shared streams, lookup
// splits computed over parts workers. Ring entry i is arrival number
// r.q+i — the ring only refills when fully drained, so the base index
// is the live counter.
func (r *openRun) ringFill(parts int) {
	n := openPredrawBlock
	// Size both buffers on their own: a recycled arena may carry a full
	// ring whose cold buffer was sized for a smaller fleet.
	r.ring = arenaSlice(&r.ring, n)
	r.ringCold = arenaInts(&r.ringCold, n*r.plan.Nodes)
	for i := range r.ring {
		a := &r.ring[i]
		a.t = r.stream.Next()
		a.user, a.visit = uint64(r.q+i), 1
		if r.visitors != nil {
			a.user, a.visit = r.visitors.Next()
		}
	}
	if parts == 1 {
		r.drawRing(0, n)
	} else {
		runParts(n, parts, r.drawRing)
	}
	r.ringHead = 0
	r.nextArr = r.ring[0].t
}

// drawRing fills ring entries [lo, hi)'s lookup splits.
func (r *openRun) drawRing(lo, hi int) {
	nodes := r.plan.Nodes
	for i := lo; i < hi; i++ {
		a := &r.ring[i]
		a.hot, a.warm = r.drawArrival(r.q+i, a.user, a.visit, r.ringCold[i*nodes:(i+1)*nodes])
	}
}
