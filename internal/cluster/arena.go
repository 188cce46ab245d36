package cluster

// Per-run arena reuse (DESIGN.md §14). One Simulate call allocates a
// few dozen slices — the per-node queue set, the sub and join records,
// the pre-draw ring, the copy wheel's buckets, and the latency sink —
// and the callers that matter (SweepReplication, the experiment
// registry, parameter sweeps in the CLIs) run thousands of simulations
// per process, so the steady-state allocation rate is pure churn. The
// arena keeps one run's working set alive on a free list and the next
// run re-slices it: acquire at entry, recapture whatever grew, release
// at exit.
//
// Correctness is the same argument everywhere: a reused buffer is
// either fully overwritten before it is read (the pre-draw ring —
// drawArrival zeroes its own cold slice — and the join's latency
// scratch),
// explicitly re-zeroed here (the active set, minute buckets, the join's
// counters, sketch and violation map), or re-sliced to length zero and only appended
// to (subs and their free list, join records and theirs, sample slots).
// Queue and wheel objects reset through their Reset hooks
// (serve.Queue.Reset, eventq.Wheel.Reset). Nothing observable escapes:
// the free list is guarded by a mutex, each concurrent run owns its
// arena exclusively between acquire and release, and a run that errors
// out simply never releases (the arena is garbage-collected).
//
// The AllocsPerRun guards in arena_test.go pin the steady state.

import (
	"sync"

	"dlrmsim/internal/eventq"
	"dlrmsim/internal/serve"
)

// runArena is one simulation run's recyclable working set. Fields are
// capacity carriers only — every run re-establishes length and
// contents before reading.
type runArena struct {
	queues   []*serve.Queue
	subs     []subState
	freeSubs []int
	eff      []int
	active   []bool
	ring     []ringArrival
	ringCold []int

	// Robustness-tier state (chaos.go, adapt.go): held by value so the
	// per-node and per-window slices inside recycle with the arena, and
	// the recovery-observability minute buckets.
	chaosSt chaosState
	adaptSt adaptState
	ttrArr  []int
	ttrGood []int

	// The query join (streamstats.go): records, free lists, sample
	// slots, and the latency sketch.
	join queryJoin

	// The recycled copy wheel: its 4096 buckets dominate the loop's
	// fixed cost.
	wheel *eventq.Wheel[subCopy]
}

var (
	arenaMu   sync.Mutex
	arenaFree []*runArena
)

// acquireArena pops a recycled arena or builds a fresh one. The caller
// owns it exclusively until release.
func acquireArena() *runArena {
	arenaMu.Lock()
	defer arenaMu.Unlock()
	if n := len(arenaFree); n > 0 {
		a := arenaFree[n-1]
		arenaFree[n-1] = nil
		arenaFree = arenaFree[:n-1]
		return a
	}
	return &runArena{}
}

// release returns the arena to the free list. The caller must have
// recaptured any slice that grew past its arena field first.
func (a *runArena) release() {
	arenaMu.Lock()
	arenaFree = append(arenaFree, a)
	arenaMu.Unlock()
}

// arenaSlice returns (*buf)[:n] with fresh capacity when needed. The
// contents are UNSPECIFIED — callers must overwrite before reading.
func arenaSlice[T any](buf *[]T, n int) []T {
	if cap(*buf) < n {
		*buf = make([]T, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

// chaosFor materializes a chaos schedule into the arena's recycled
// chaos state.
func (a *runArena) chaosFor(sched *ChaosSchedule, nodes int) *chaosState {
	a.chaosSt.init(sched, nodes)
	return &a.chaosSt
}

// adaptFor resets the arena's recycled adaptive-mitigation state for a
// default-applied policy.
func (a *runArena) adaptFor(m *Mitigation, nodes int) *adaptState {
	a.adaptSt.init(m, nodes)
	return &a.adaptSt
}

// ttrBuckets returns zeroed arrival/goodput minute buckets for the
// recovery-time scan.
func (a *runArena) ttrBuckets(n int) (arr, good []int) {
	arr = arenaSlice(&a.ttrArr, n)
	good = arenaSlice(&a.ttrGood, n)
	for i := 0; i < n; i++ {
		arr[i], good[i] = 0, 0
	}
	return arr, good
}

// joinFor resets the arena's recycled join for a run, keeping its
// slices' capacity. stream selects the sketch sink over sample slots.
func (a *runArena) joinFor(stream bool, denseMs, slaMs, minuteMs float64) *queryJoin {
	j := &a.join
	samples, joins, freeJoins := j.samples[:0], j.joins[:0], j.freeJoins[:0]
	latencies, violated := j.latencies, j.violated
	if violated == nil {
		violated = make(map[int]bool)
	} else {
		clear(violated)
	}
	*j = queryJoin{
		stream:    stream,
		samples:   samples,
		latencies: latencies,
		joins:     joins,
		freeJoins: freeJoins,
		denseMs:   denseMs,
		slaMs:     slaMs,
		minuteMs:  minuteMs,
		violated:  violated,
	}
	return j
}

// queueSet returns plan-sized per-node FCFS queues, recycling queue
// objects through serve.Queue.Reset and building only the missing ones.
func (a *runArena) queueSet(nodes, servers int) []*serve.Queue {
	if cap(a.queues) < nodes {
		old := a.queues
		a.queues = make([]*serve.Queue, nodes)
		copy(a.queues, old)
	}
	a.queues = a.queues[:nodes]
	for n := range a.queues {
		if a.queues[n] == nil {
			a.queues[n] = serve.NewQueue(servers)
		} else {
			a.queues[n].Reset(servers)
		}
	}
	return a.queues
}

// boolSet returns an n-length all-false slice.
func (a *runArena) boolSet(n int) []bool {
	if cap(a.active) < n {
		a.active = make([]bool, n)
	}
	a.active = a.active[:n]
	for i := range a.active {
		a.active[i] = false
	}
	return a.active
}

// copyWheel returns the run's copy wheel with buckets width ms wide,
// recycling the previous run's. The loop drains the wheel completely
// before finishing, so a recycled wheel is already empty; it rebases to
// time zero and the run's width (Wheel.Reset) because its monotone-pop
// watermark survives draining.
func (a *runArena) copyWheel(width float64) *eventq.Wheel[subCopy] {
	if a.wheel == nil {
		a.wheel = eventq.NewWheel(width, wheelBuckets, 0, copyArrive, copyLess)
	} else {
		a.wheel.Reset(0, width)
	}
	return a.wheel
}
