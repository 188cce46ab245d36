package hetsched

import "dlrmsim/internal/check"

// Ready queues. Each device keeps one FIFO per phase kind, threaded
// intrusively through two per-instance arrays allocated once per run:
// link (the next instance in the same FIFO) and stamp (a run-wide
// enqueue sequence number). Launches and steals follow the device's
// whole-queue arrival order, whose head — the device's oldest queued
// phase — is the kind head with the smallest stamp. Finding it is
// O(NumKinds), taking the next n phases of one kind is O(n), and
// nothing rescans a backlog (DESIGN.md §12.4).

const (
	qEnd      int32 = -1 // link of a FIFO's tail; head/tail of an empty FIFO
	notQueued int32 = -2 // link of an instance that sits in no queue
)

// kindMask is a set of phase kinds: bit k stands for kind k.
type kindMask uint8

const allKinds kindMask = 1<<NumKinds - 1

// devQueue is one device's ready queue: a FIFO per phase kind.
type devQueue struct {
	head, tail [NumKinds]int32
	count      [NumKinds]int
	total      int
}

// readyQueues holds every device's ready queue for one run.
type readyQueues struct {
	link  []int32  // per instance: next in its FIFO, qEnd at the tail, notQueued outside every queue
	stamp []uint64 // per instance: sequence number of its latest enqueue
	seq   uint64
	dev   []devQueue
}

func newReadyQueues(instances, devices int) readyQueues {
	q := readyQueues{
		link:  make([]int32, instances),
		stamp: make([]uint64, instances),
		dev:   make([]devQueue, devices),
	}
	for i := range q.link {
		q.link[i] = notQueued
	}
	for d := range q.dev {
		for k := range q.dev[d].head {
			q.dev[d].head[k], q.dev[d].tail[k] = qEnd, qEnd
		}
	}
	return q
}

// push appends kind-k phase instance p to device d's queue.
func (q *readyQueues) push(d int, p int32, k PhaseKind) {
	if check.Enabled && q.link[p] != notQueued {
		// A second enqueue would splice p into two lists at once and
		// corrupt both silently.
		check.Assert(false, "hetsched: phase %d enqueued on device %d while already queued", p, d)
	}
	q.link[p] = qEnd
	q.stamp[p] = q.seq
	q.seq++
	dq := &q.dev[d]
	if dq.tail[k] == qEnd {
		dq.head[k] = p
	} else {
		q.link[dq.tail[k]] = p
	}
	dq.tail[k] = p
	dq.count[k]++
	dq.total++
}

// oldest returns device d's longest-queued phase among the kinds in m
// and its kind, or qEnd when none of them is queued.
func (q *readyQueues) oldest(d int, m kindMask) (int32, PhaseKind) {
	dq := &q.dev[d]
	p, kind := qEnd, PhaseKind(0)
	for k := PhaseKind(0); k < NumKinds; k++ {
		h := dq.head[k]
		if h == qEnd || m&(1<<k) == 0 {
			continue
		}
		if p == qEnd || q.stamp[h] < q.stamp[p] {
			p, kind = h, k
		}
	}
	return p, kind
}

// pop removes and returns the head of device d's kind-k FIFO, which must
// not be empty.
func (q *readyQueues) pop(d int, k PhaseKind) int32 {
	dq := &q.dev[d]
	p := dq.head[k]
	dq.head[k] = q.link[p]
	if dq.head[k] == qEnd {
		dq.tail[k] = qEnd
	}
	q.link[p] = notQueued
	dq.count[k]--
	dq.total--
	return p
}
