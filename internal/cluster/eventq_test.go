package cluster

import (
	"testing"

	"dlrmsim/internal/traffic"
)

// TestOpenLoopDispatchAllocs extends the zero-alloc guards to dispatch:
// every scheduled copy passes through the copy wheel, so pushing and
// popping must not allocate in steady state. The wheel takes the width
// an open-loop run's arrival rate gives it.
func TestOpenLoopDispatchAllocs(t *testing.T) {
	cfg := openTestConfig(t, 4, &OpenLoop{
		Arrivals:   traffic.Config{Model: traffic.Poisson, RatePerMs: openRate(t, 4, 0.5)},
		DurationMs: 300,
		SLAMs:      50,
	})
	width := wheelWidthMs(&cfg)
	copies := make([]subCopy, 64)
	for i := range copies {
		copies[i] = subCopy{arrive: float64(i%13) * 1.2 * width, sub: i, seq: i, attempt: i % 3}
	}
	// The last copy lands exactly one ring revolution ahead
	// (width × wheelBuckets), so each cycle advances the wheel by a
	// whole revolution: every cycle reuses the same ring slots and one
	// warm cycle settles all bucket capacities.
	copies[len(copies)-1].arrive = width * wheelBuckets
	var a runArena
	q := a.copyWheel(width)
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
