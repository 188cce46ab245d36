package cluster

// The query join, which every Simulate run — closed and open loop,
// exact and stream-stats alike — performs INCREMENTALLY. Every
// sub-request counts its outstanding copies; when the last copy is
// processed the sub folds its resolution into its query's join record
// and returns its slot to a freelist, and when a query's last sub
// folds, the query finalizes into the summary accumulators and its
// record is recycled too. Live sub and join state is bounded by the
// in-flight high-water mark, not the run length; summary() only reads
// the accumulators.
//
// OpenLoop.StreamStats (-stream-stats in cmd/dlrmcluster) picks only
// where a finalized scored latency goes:
//
//   - Off (exact, the golden baseline): into a per-query sample slot
//     reserved at admission, in arrival order, together with the query's
//     completeness ratio. The summary sums both in slot order and takes
//     nearest-rank percentiles over the latencies, so the result is the
//     one a batch join over retained queries would produce, bit for bit.
//     The slots cost O(scored queries) memory, 16 bytes each.
//   - On: into a fixed-memory stats.QuantileSketch, with Mean and
//     Completeness summed in completion order. P50/P95/P99 carry the
//     sketch's bounded relative error (~0.8%), and Mean and Completeness
//     can differ from the exact mode by float summation order; every
//     counter metric (goodput, shed rate, violation minutes, fanout,
//     retries, availability) is exact.
//
// Event order under recycling: the copy comparator keys ties on the
// sub's monotone creation seq (sim.go), which the freelist does not
// reuse, so admission, queueing, and service times do not depend on
// which slot a sub lands in.

import (
	"math"

	"dlrmsim/internal/check"
	"dlrmsim/internal/stats"
)

// joinRec is one in-flight query's incremental join state.
type joinRec struct {
	arrive        float64
	joined        float64 // max sub resolution time so far
	subsLeft      int
	queryLookups  int
	servedLookups int
	hedges        int
	retries       int
	fanout        int
	complete      bool
	scored        bool // past the warmup gate (simState.scored)
	sample        int  // exact mode: the query's sample slot
}

// joinSample is one scored query's exact-mode record: its latency and
// the fraction of its lookups its join included.
type joinSample struct {
	lat, completeness float64
}

// queryJoin owns the incremental join: recycled records, the latency
// sink (sample slots or sketch), and the counters the summary reads.
// It lives in the run arena (arena.go), so its slices and sketch
// recycle across runs.
type queryJoin struct {
	stream    bool
	sketch    stats.QuantileSketch
	latSum    float64 // stream mode: latencies in completion order
	samples   []joinSample
	latencies []float64 // exact mode: the summary's percentile input
	joins     []joinRec
	freeJoins []int

	denseMs  float64
	slaMs    float64
	minuteMs float64
	violated map[int]bool

	postArr, postAdmit, postShed, postRevisit int
	goodCount                                 int
	fanoutSum, hedgeCount, retryCount         int
	fullJoins                                 int
	completenessSum                           float64 // stream mode
	simEnd                                    float64 // max finish over admitted queries

	// Recovery observability (chaos.go): minute buckets of scored
	// arrivals and in-SLA completions, measured from clearMs (the
	// fault-clear instant clipped to the horizon), and the post-fault
	// (arrive >= pfThreshMs) offered/good counters. ttrArr nil unless an
	// open-loop chaos schedule fires before the horizon.
	ttrArr, ttrGood []int
	clearMs         float64
	pfThreshMs      float64
	pfArr, pfGood   int

	maxLiveJoins, maxLiveSubs int
}

// joinHighWater, when non-nil, receives every run's live-record
// high-water marks. Test hook for the flat-memory guarantee.
var joinHighWater func(liveSubs, liveJoins int)

// arrival records one arrival's router-side outcome and, when admitted,
// opens a join record. Returns the record's slot (-1 when shed).
func (j *queryJoin) arrival(now float64, scored, admitted, revisit bool) int {
	if scored {
		j.postArr++
		if revisit {
			j.postRevisit++
		}
		if admitted {
			j.postAdmit++
		} else {
			j.postShed++
		}
		if j.ttrArr != nil {
			j.ttrArr[int(now/j.minuteMs)]++
			if now >= j.pfThreshMs {
				j.pfArr++
			}
		}
	}
	if !admitted {
		return -1
	}
	rec := joinRec{arrive: now, joined: now, complete: true, scored: scored}
	if scored && !j.stream {
		rec.sample = len(j.samples)
		j.samples = append(j.samples, joinSample{lat: math.NaN()})
	}
	var slot int
	if n := len(j.freeJoins); n > 0 {
		slot = j.freeJoins[n-1]
		j.freeJoins = j.freeJoins[:n-1]
		j.joins[slot] = rec
	} else {
		slot = len(j.joins)
		j.joins = append(j.joins, rec)
	}
	if live := len(j.joins) - len(j.freeJoins); live > j.maxLiveJoins {
		j.maxLiveJoins = live
	}
	return slot
}

// subAttached notes one scheduled sub on a join record.
func (j *queryJoin) subAttached(slot int) {
	j.joins[slot].subsLeft++
	j.joins[slot].fanout++
}

// finalizeIfEmpty closes a join record that attached no subs (an
// admitted query whose every lookup short-circuited): it joins at its
// own arrival.
func (j *queryJoin) finalizeIfEmpty(slot int) {
	if slot >= 0 && j.joins[slot].subsLeft == 0 {
		j.finalize(slot)
	}
}

// copyDone is called after every processed copy, in canonical copy
// order. When it was the sub's last outstanding copy, the sub resolves
// into its join record and its slot is recycled; when that was the
// query's last sub, the query finalizes.
func (j *queryJoin) copyDone(st *simState, subIdx int) {
	sub := &st.subs[subIdx]
	sub.copiesLeft--
	if sub.copiesLeft > 0 {
		return
	}
	if live := len(st.subs) - len(st.freeSubs); live > j.maxLiveSubs {
		j.maxLiveSubs = live
	}
	rec := &j.joins[sub.join]
	doneAt, ok := st.resolve(sub)
	if doneAt > rec.joined {
		rec.joined = doneAt
	}
	rec.queryLookups += sub.served
	rec.retries += sub.retries
	if sub.hedged {
		rec.hedges++
	}
	if ok {
		rec.servedLookups += sub.served
	} else {
		rec.complete = false
	}
	st.freeSubs = append(st.freeSubs, subIdx)
	rec.subsLeft--
	if rec.subsLeft == 0 {
		j.finalize(sub.join)
	}
}

// finalize folds one joined query — its slowest surviving sub-request
// (or, degraded, the deadline the router abandons the slowest shard at)
// plus the dense stages charged at the router — into the accumulators,
// and recycles the record.
func (j *queryJoin) finalize(slot int) {
	rec := &j.joins[slot]
	finish := rec.joined + j.denseMs
	if finish > j.simEnd {
		j.simEnd = finish
	}
	if rec.scored {
		lat := finish - rec.arrive
		completeness := 1.0
		if rec.queryLookups > 0 {
			completeness = float64(rec.servedLookups) / float64(rec.queryLookups)
		}
		if j.stream {
			j.sketch.Add(lat)
			j.latSum += lat
			j.completenessSum += completeness
		} else {
			j.samples[rec.sample] = joinSample{lat, completeness}
		}
		if lat <= j.slaMs {
			j.goodCount++
			if j.ttrArr != nil {
				j.ttrGood[int(rec.arrive/j.minuteMs)]++
				if rec.arrive >= j.pfThreshMs {
					j.pfGood++
				}
			}
		} else {
			j.violated[int(rec.arrive/j.minuteMs)] = true
		}
		j.fanoutSum += rec.fanout
		j.hedgeCount += rec.hedges
		j.retryCount += rec.retries
		if rec.complete {
			j.fullJoins++
		}
	}
	j.freeJoins = append(j.freeJoins, slot)
}

// latencySummary returns the scored latencies' p50/p95/p99, mean, count
// and completeness sum. Exact mode reads the sample slots in arrival
// order; stream mode reads the sketch and the completion-order sums.
func (j *queryJoin) latencySummary() (pct []float64, mean float64, n int, completenessSum float64) {
	if j.stream {
		sk := &j.sketch
		n = int(sk.Count())
		if n > 0 {
			mean = j.latSum / float64(n)
		}
		return []float64{sk.Quantile(0.50), sk.Quantile(0.95), sk.Quantile(0.99)}, mean, n, j.completenessSum
	}
	lat := arenaSlice(&j.latencies, len(j.samples))
	for i, s := range j.samples {
		lat[i] = s.lat
		completenessSum += s.completeness
	}
	return stats.Percentiles(lat, 0.50, 0.95, 0.99), stats.Mean(lat), len(lat), completenessSum
}

// checkDrained asserts the join's conservation invariants after the
// event loop drains: no join record or sub slot is still live, every
// scored arrival was either admitted or shed, and every scored admitted
// query recorded exactly one latency.
func (j *queryJoin) checkDrained(st *simState) {
	check.Assert(len(j.freeJoins) == len(j.joins),
		"cluster: %d query joins still open after drain", len(j.joins)-len(j.freeJoins))
	check.Assert(len(st.freeSubs) == len(st.subs),
		"cluster: %d sub-requests still live after drain", len(st.subs)-len(st.freeSubs))
	check.Assert(j.postArr == j.postAdmit+j.postShed,
		"cluster: %d scored arrivals but %d admitted + %d shed", j.postArr, j.postAdmit, j.postShed)
	recorded := int(j.sketch.Count())
	if !j.stream {
		recorded = 0
		for _, s := range j.samples {
			if !math.IsNaN(s.lat) {
				recorded++
			}
		}
	}
	check.Assert(recorded == j.postAdmit,
		"cluster: %d scored admitted queries but %d latencies recorded", j.postAdmit, recorded)
}
