package cluster

import (
	"testing"

	"dlrmsim/internal/trace"
	"dlrmsim/internal/traffic"
)

// TestArenaReuseDeterministic: repeated runs through the recycled arena
// are byte-identical — a reused buffer that leaked state between runs
// would perturb the Result bit-for-bit.
func TestArenaReuseDeterministic(t *testing.T) {
	for name, cfg := range execConfigs(t) {
		want, err := Simulate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			got, err := Simulate(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("%s: rerun %d through the arena diverged:\n%+v\n%+v", name, i, want, got)
			}
		}
	}
}

// TestArenaReuseAcrossFleetSizes: an arena recycled from a smaller
// open-loop fleet serves a larger one. Each pre-draw buffer must be
// sized on its own — a full-length ring whose cold buffer was sized
// for one node would be sliced past its capacity by a four-node run.
// The free list is emptied first so the result does not depend on
// which fleets earlier tests left behind.
func TestArenaReuseAcrossFleetSizes(t *testing.T) {
	arenaMu.Lock()
	saved := arenaFree
	arenaFree = nil
	arenaMu.Unlock()
	defer func() {
		arenaMu.Lock()
		arenaFree = saved
		arenaMu.Unlock()
	}()
	open := func(nodes int) Config {
		return openTestConfig(t, nodes, &OpenLoop{
			Arrivals:   traffic.Config{Model: traffic.Poisson, RatePerMs: openRate(t, nodes, 0.5)},
			DurationMs: 200,
			SLAMs:      50,
		})
	}
	small, large := open(1), open(4)
	want, err := Simulate(large)
	if err != nil {
		t.Fatal(err)
	}
	arenaMu.Lock()
	arenaFree = nil
	arenaMu.Unlock()
	if _, err := Simulate(small); err != nil {
		t.Fatal(err)
	}
	got, err := Simulate(large)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("4-node run through an arena recycled from a 1-node run diverged:\n%+v\n%+v", want, got)
	}
}

// TestSimulateAllocsSteadyState pins the arena's payoff: after a warmup
// run seeds the free list, a closed-loop run performs a handful of
// allocations (the run state, the arrival source, the shared Zipf
// sampler, and the percentile summary) instead of the ~40 per-run
// slices it allocated before arena reuse. The bounds are loose enough to survive
// incidental churn but fail if per-run pooling regresses wholesale.
func TestSimulateAllocsSteadyState(t *testing.T) {
	cfg := testConfig(t, 8, RowRange, 0.01, trace.HighHot)
	if _, err := Simulate(cfg); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(5, func() { Simulate(cfg) }); allocs > 10 {
		t.Errorf("closed-loop Simulate allocates %.0f objects/run in steady state, want <= 10", allocs)
	}

	ocfg := openTestConfig(t, 4, &OpenLoop{
		Arrivals:   traffic.Config{Model: traffic.Poisson, RatePerMs: openRate(t, 4, 0.5)},
		DurationMs: 300,
		SLAMs:      50,
	})
	if _, err := Simulate(ocfg); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(5, func() { Simulate(ocfg) }); allocs > 16 {
		t.Errorf("open-loop Simulate allocates %.0f objects/run in steady state, want <= 16", allocs)
	}

	// Stream-stats recycles the same join state, sketch included.
	scfg := ocfg
	so := *ocfg.Open
	so.StreamStats = true
	scfg.Open = &so
	if _, err := Simulate(scfg); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(5, func() { Simulate(scfg) }); allocs > 16 {
		t.Errorf("stream-stats Simulate allocates %.0f objects/run in steady state, want <= 16", allocs)
	}
}
