package hetsched

import (
	"slices"
	"testing"
)

// refQueues is the ready queue the per-kind FIFOs replaced: one slice per
// device in enqueue order, rescanned by every operation.
type refQueues [][]refEntry

type refEntry struct {
	p int32
	k PhaseKind
}

func (r refQueues) count(d int, k PhaseKind) int {
	n := 0
	for _, e := range r[d] {
		if e.k == k {
			n++
		}
	}
	return n
}

// launch takes the first (at most mb) phases of the head's kind.
func (r refQueues) launch(d, mb int) []int32 {
	if len(r[d]) == 0 {
		return nil
	}
	k := r[d][0].k
	var out []int32
	r[d] = slices.DeleteFunc(r[d], func(e refEntry) bool {
		if len(out) < mb && e.k == k {
			out = append(out, e.p)
			return true
		}
		return false
	})
	return out
}

// steal removes the first phase whose kind is in m.
func (r refQueues) steal(d int, m kindMask) (refEntry, bool) {
	for i, e := range r[d] {
		if m&(1<<e.k) != 0 {
			r[d] = slices.Delete(r[d], i, i+1)
			return e, true
		}
	}
	return refEntry{}, false
}

// FuzzKindQueues runs random interleavings of enqueue, launch and steal
// against refQueues: both sides must pop the same instances in the same
// order and agree on every device's head, head kind and per-kind counts
// after every step. Instances are recycled once popped, so the
// not-queued sentinel is exercised too.
func FuzzKindQueues(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 1, 0, 2, 1, 4})
	f.Add([]byte{2, 0, 5, 3, 1, 6, 2, 9, 7, 1, 3, 2, 200, 4, 2})
	f.Add([]byte{3, 0, 0, 3, 1, 6, 2, 0, 5, 3, 4, 6, 3, 2, 250, 5, 17, 1, 9, 4, 7})
	f.Add([]byte{1, 0, 1, 0, 2, 0, 0, 0, 1, 2, 3, 1, 3, 1, 7, 2, 0})
	f.Add([]byte{0, 0, 0, 1, 0, 0, 3}) // drain a FIFO, then refill it
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		// Short runs keep each input, and its minimization, fast.
		const instances, maxSteps = 24, 64
		nDev := int(data[0])%4 + 1
		data = data[1:min(len(data), 1+2*maxSteps)]
		q := newReadyQueues(instances, nDev)
		ref := make(refQueues, nDev)
		free := make([]int32, instances)
		for i := range free {
			free[i] = int32(i)
		}
		for step := 0; len(data) >= 2; step, data = step+1, data[2:] {
			op, arg := data[0]%3, data[1]
			d := int(data[0]/3) % nDev
			switch op {
			case 0: // enqueue a kind-k instance on device d
				if len(free) == 0 {
					continue
				}
				k := PhaseKind(arg % NumKinds)
				i := int(arg/NumKinds) % len(free)
				p := free[i]
				free = slices.Delete(free, i, i+1)
				q.push(d, p, k)
				ref[d] = append(ref[d], refEntry{p, k})
			case 1: // launch up to mb phases of the head kind
				mb := int(arg)%8 + 1
				want := ref.launch(d, mb)
				var got []int32
				if q.dev[d].total > 0 {
					_, k := q.oldest(d, allKinds)
					for range min(q.dev[d].count[k], mb) {
						got = append(got, q.pop(d, k))
					}
				}
				if !slices.Equal(got, want) {
					t.Fatalf("step %d: launch popped %v, reference %v", step, got, want)
				}
				free = append(free, got...)
			case 2: // steal the oldest phase a thief with mask m can run
				m := kindMask(arg) & allKinds
				to := int(arg>>3) % nDev
				want, wok := ref.steal(d, m)
				p, k := q.oldest(d, m)
				if ok := p != qEnd; ok != wok || ok && (p != want.p || k != want.k) {
					t.Fatalf("step %d: steal took %d (%v, %v), reference %d (%v, %v)", step, p, k, ok, want.p, want.k, wok)
				}
				if !wok {
					continue
				}
				q.pop(d, k)
				q.push(to, p, k)
				ref[to] = append(ref[to], want)
			}
			for e := 0; e < nDev; e++ {
				dq := &q.dev[e]
				if dq.total != len(ref[e]) {
					t.Fatalf("step %d: device %d holds %d phases, reference %d", step, e, dq.total, len(ref[e]))
				}
				for k := PhaseKind(0); k < NumKinds; k++ {
					if got, want := dq.count[k], ref.count(e, k); got != want {
						t.Fatalf("step %d: device %d holds %d %v phases, reference %d", step, e, got, k, want)
					}
				}
				if len(ref[e]) > 0 {
					p, k := q.oldest(e, allKinds)
					if h := ref[e][0]; p != h.p || k != h.k {
						t.Fatalf("step %d: device %d head %d (%v), reference %d (%v)", step, e, p, k, h.p, h.k)
					}
				}
			}
		}
	})
}

// TestPushTwicePanics pins the not-queued sentinel check: enqueueing an
// instance that already sits in a queue must trip the invariant rather
// than splice it into two lists.
func TestPushTwicePanics(t *testing.T) {
	q := newReadyQueues(4, 2)
	q.push(0, 1, Gather)
	defer func() {
		if r := recover(); r == nil {
			t.Error("second push of a queued instance did not panic")
		}
	}()
	q.push(1, 1, MLP)
}
