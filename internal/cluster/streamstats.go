package cluster

// Stream-stats mode for the open-loop tier (-stream-stats in
// cmd/dlrmcluster): instead of retaining one latency sample and one sub
// record per admitted query — O(queries) memory that makes a
// day-in-the-life run at production QPS (billions of events)
// impossible — the join happens INCREMENTALLY. Every sub-request counts
// its outstanding copies; when the last copy is processed the sub folds
// its resolution into its query's join record and returns its slot to a
// freelist, and when a query's last sub folds, the query finalizes:
// its latency goes into a fixed-memory stats.QuantileSketch and its
// record is recycled too. Live state is bounded by the in-flight
// high-water mark, not the run length.
//
// Accuracy contract: every counter metric (goodput, shed rate,
// violation minutes, fanout, retries, availability, completeness) is
// EXACT — the same per-query quantities fold in the same warmup gate as
// the batch join, merely earlier. P50/P95/P99 carry the sketch's
// bounded relative error (~0.8%, stats.QuantileSketch), and Mean can
// differ only by float summation order. The default mode keeps the
// exact batch join, so golden files are untouched.
//
// Event order under recycling: the copy comparator keys ties on the
// sub's monotone creation seq (sim.go), which the freelist does not
// reuse, so admission, queueing, and service times are bit-for-bit
// identical to the batch-join run — only the summary differs.

import "dlrmsim/internal/stats"

// openJoinRec is one in-flight query's incremental join state.
type openJoinRec struct {
	arrive        float64
	joined        float64 // max sub resolution time so far
	subsLeft      int
	queryLookups  int
	servedLookups int
	hedges        int
	retries       int
	fanout        int
	complete      bool
	post          bool // arrived at/after the warmup horizon
}

// streamJoin owns the incremental join: recycled records, the latency
// sketch, and the exact counters the batch join would produce. latSum
// accumulates every folded latency in completion order; Result.Mean
// comes from it rather than from the sketch.
type streamJoin struct {
	sketch    stats.QuantileSketch
	latSum    float64
	joins     []openJoinRec
	freeJoins []int

	warmupMs float64
	slaMs    float64
	denseMs  float64
	minuteMs float64
	violated map[int]bool

	postArr, postShed, postRevisit    int
	goodCount                         int
	fanoutSum, subCount               int
	hedgeCount, retryCount, fullJoins int
	completenessSum                   float64

	// Recovery observability (chaos.go): the minute buckets and
	// post-fault counters the batch join fills in its summary loop,
	// accumulated here at arrival/finalize time instead. ttrArr nil when
	// the run has no chaos schedule.
	ttrArr, ttrGood []int
	pfThreshMs      float64
	pfArr, pfGood   int

	maxLiveJoins, maxLiveSubs int
}

// streamHighWater, when non-nil, receives the run's live-record
// high-water marks after a stream-stats run. Test hook for the
// flat-memory guarantee.
var streamHighWater func(liveSubs, liveJoins int)

func newStreamJoin(o *OpenLoop, minuteMs float64, violated map[int]bool) *streamJoin {
	return &streamJoin{
		warmupMs: o.WarmupMs,
		slaMs:    o.SLAMs,
		denseMs:  0, // set by caller (needs cfg.Timing)
		minuteMs: minuteMs,
		violated: violated,
	}
}

// arrival records one arrival's router-side outcome and, when admitted,
// opens a join record. Returns the record's slot (-1 when none needed).
func (sj *streamJoin) arrival(now float64, admitted, revisit bool) int {
	post := now >= sj.warmupMs
	if post {
		sj.postArr++
		if revisit {
			sj.postRevisit++
		}
		if !admitted {
			sj.postShed++
		}
		if sj.ttrArr != nil {
			sj.ttrArr[int(now/sj.minuteMs)]++
			if now >= sj.pfThreshMs {
				sj.pfArr++
			}
		}
	}
	if !admitted {
		return -1
	}
	rec := openJoinRec{arrive: now, joined: now, complete: true, post: post}
	var slot int
	if n := len(sj.freeJoins); n > 0 {
		slot = sj.freeJoins[n-1]
		sj.freeJoins = sj.freeJoins[:n-1]
		sj.joins[slot] = rec
	} else {
		slot = len(sj.joins)
		sj.joins = append(sj.joins, rec)
	}
	if live := len(sj.joins) - len(sj.freeJoins); live > sj.maxLiveJoins {
		sj.maxLiveJoins = live
	}
	return slot
}

// subAttached notes one scheduled sub on a join record.
func (sj *streamJoin) subAttached(slot int) {
	sj.joins[slot].subsLeft++
	sj.joins[slot].fanout++
}

// finalizeIfEmpty closes a join record that attached no subs (an
// admitted query whose every lookup short-circuited): it joins at its
// own arrival, exactly as the batch loop scores it.
func (sj *streamJoin) finalizeIfEmpty(slot int) {
	if slot >= 0 && sj.joins[slot].subsLeft == 0 {
		sj.finalize(slot)
	}
}

// copyDone is called after every processed copy, in canonical copy
// order. When it was the sub's last outstanding copy, the sub resolves
// into its join record and its slot is recycled; when that was the
// query's last sub, the query finalizes.
func (sj *streamJoin) copyDone(st *simState, subIdx int) {
	sub := &st.subs[subIdx]
	sub.copiesLeft--
	if sub.copiesLeft > 0 {
		return
	}
	if live := len(st.subs) - len(st.freeSubs); live > sj.maxLiveSubs {
		sj.maxLiveSubs = live
	}
	rec := &sj.joins[sub.join]
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
		sj.finalize(sub.join)
	}
}

// finalize folds one joined query into the summary accumulators —
// the exact statements the batch join loop runs, minus the slice
// append — and recycles the record.
func (sj *streamJoin) finalize(slot int) {
	rec := &sj.joins[slot]
	if rec.post {
		lat := rec.joined + sj.denseMs - rec.arrive
		sj.sketch.Add(lat)
		sj.latSum += lat
		if lat <= sj.slaMs {
			sj.goodCount++
			if sj.ttrArr != nil {
				sj.ttrGood[int(rec.arrive/sj.minuteMs)]++
				if rec.arrive >= sj.pfThreshMs {
					sj.pfGood++
				}
			}
		} else {
			sj.violated[int(rec.arrive/sj.minuteMs)] = true
		}
		sj.fanoutSum += rec.fanout
		sj.subCount += rec.fanout
		sj.hedgeCount += rec.hedges
		sj.retryCount += rec.retries
		if rec.complete {
			sj.fullJoins++
		}
		if rec.queryLookups > 0 {
			sj.completenessSum += float64(rec.servedLookups) / float64(rec.queryLookups)
		} else {
			sj.completenessSum++
		}
	}
	sj.freeJoins = append(sj.freeJoins, slot)
}
