package cluster

import "testing"

// TestOpenLoopDispatchAllocs extends the zero-alloc guards to open-loop
// dispatch: every scheduled copy passes through the open loop's copy
// wheel, so pushing and popping must not allocate in steady state.
func TestOpenLoopDispatchAllocs(t *testing.T) {
	copies := make([]subCopy, 64)
	for i := range copies {
		copies[i] = subCopy{arrive: float64(i%13) * 0.3, sub: i, seq: i, attempt: i % 3}
	}
	// The last copy lands exactly one ring revolution ahead
	// (openWheelWidthMs × openWheelBuckets), so each cycle advances the
	// wheel by a whole revolution: every cycle reuses the same ring
	// slots and one warm cycle settles all bucket capacities.
	copies[len(copies)-1].arrive = openWheelWidthMs * openWheelBuckets
	var a runArena
	q := a.copyWheel()
	base := 0.0 // keeps pushes monotone across cycles
	cycle := func() {
		start := base
		for _, c := range copies {
			c.arrive += start
			q.Push(c)
		}
		for q.Len() > 0 {
			base = q.Pop().arrive
		}
	}
	for i := 0; i < 8; i++ { // warm bucket/overflow capacity
		cycle()
	}
	if allocs := testing.AllocsPerRun(50, cycle); allocs > 0 {
		t.Errorf("wheel dispatch allocated %.0f times per cycle, want 0", allocs)
	}
}
