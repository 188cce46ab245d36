package cluster

import (
	"math"
	"testing"

	"dlrmsim/internal/check"
	"dlrmsim/internal/trace"
	"dlrmsim/internal/traffic"
)

// streamTestOpen is the shared open-loop spec for stream-vs-exact
// comparisons: shedding, a population, faults-free but hedged, at
// moderate overload so violations and sheds actually occur.
func streamTestOpen(t *testing.T, stream bool) Config {
	t.Helper()
	cfg := openTestConfig(t, 4, &OpenLoop{
		Arrivals:    traffic.Config{Model: traffic.Poisson, RatePerMs: openRate(t, 4, 0.75)},
		Population:  &traffic.Population{Users: 64, RevisitProb: 0.5, Affinity: 0.6},
		DurationMs:  600,
		SLAMs:       2,
		Admission:   Admission{Policy: ShedOverBudget, QueueBudgetMs: 8},
		StreamStats: stream,
	})
	cfg.Mitigation = Mitigation{TimeoutMs: 2, MaxRetries: 2, HedgeDelayMs: 1, DegradedJoin: true}
	cfg.Faults = FaultModel{
		SlowdownEveryMs: 40, SlowdownMeanMs: 6, SlowdownFactor: 4,
		DownEveryMs: 120, DownMeanMs: 3,
		DropProb: 0.01,
	}
	return cfg
}

// TestStreamStatsMatchesBatch pins the stream-stats accuracy contract:
// every counter metric is EXACTLY the exact mode's value; the
// percentiles sit within the sketch's error bound; Mean differs only
// by float summation order.
func TestStreamStatsMatchesBatch(t *testing.T) {
	batch, err := Simulate(streamTestOpen(t, false))
	if err != nil {
		t.Fatal(err)
	}
	stream, err := Simulate(streamTestOpen(t, true))
	if err != nil {
		t.Fatal(err)
	}

	// Exact: everything except the three percentiles and the mean.
	exact := []struct {
		name string
		b, s float64
	}{
		{"MaxQueueWaitMs", batch.MaxQueueWaitMs, stream.MaxQueueWaitMs},
		{"MeanFanout", batch.MeanFanout, stream.MeanFanout},
		{"Availability", batch.Availability, stream.Availability},
		{"Completeness", batch.Completeness, stream.Completeness},
		{"RetriesPerQuery", batch.RetriesPerQuery, stream.RetriesPerQuery},
		{"HedgeRate", batch.HedgeRate, stream.HedgeRate},
		{"OfferedQPS", batch.OfferedQPS, stream.OfferedQPS},
		{"Goodput", batch.Goodput, stream.Goodput},
		{"ShedRate", batch.ShedRate, stream.ShedRate},
		{"RevisitRate", batch.RevisitRate, stream.RevisitRate},
		{"SLAViolationMinutes", batch.SLAViolationMinutes, stream.SLAViolationMinutes},
		{"MeanActiveNodes", batch.MeanActiveNodes, stream.MeanActiveNodes},
		{"Utilization", batch.Utilization, stream.Utilization},
		{"Imbalance", batch.Imbalance, stream.Imbalance},
		{"LocalFraction", batch.LocalFraction, stream.LocalFraction},
	}
	for _, e := range exact {
		if e.b != e.s {
			t.Errorf("%s: batch %v, stream %v (must be exact)", e.name, e.b, e.s)
		}
	}
	if batch.Goodput == 0 || batch.ShedRate == 0 || batch.SLAViolationMinutes == 0 {
		t.Fatalf("fixture too tame to exercise the contract: %+v", batch)
	}

	// Bounded: percentiles within twice the sketch's half-bucket bound.
	relTol := 2.0 / 128
	for _, p := range []struct {
		name string
		b, s float64
	}{{"P50", batch.P50, stream.P50}, {"P95", batch.P95, stream.P95}, {"P99", batch.P99, stream.P99}} {
		if rel := math.Abs(p.s-p.b) / p.b; rel > relTol {
			t.Errorf("%s: batch %g, stream %g (rel err %.4f > %.4f)", p.name, p.b, p.s, rel, relTol)
		}
	}
	if rel := math.Abs(stream.Mean-batch.Mean) / batch.Mean; rel > 1e-9 {
		t.Errorf("Mean: batch %g, stream %g (beyond FP reassociation)", batch.Mean, stream.Mean)
	}
}

// TestStreamStatsFlatMemory pins the flat-memory guarantee of the
// incremental join in every mode — open loop exact and stream-stats,
// and the closed loop: quadrupling the run length must not grow the
// live sub and join high-water marks, which track in-flight work, not
// run length.
func TestStreamStatsFlatMemory(t *testing.T) {
	type highWater struct{ subs, joins, arrivals int }
	run := func(cfg Config, arrivals func(Result) int) highWater {
		var hw highWater
		defer func() { joinHighWater = nil }()
		joinHighWater = func(s, j int) { hw.subs, hw.joins = s, j }
		res, err := Simulate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		hw.arrivals = arrivals(res)
		return hw
	}
	open := func(stream bool) func(scale int) highWater {
		return func(scale int) highWater {
			durationMs := 500 * float64(scale)
			cfg := openTestConfig(t, 4, &OpenLoop{
				Arrivals:    traffic.Config{Model: traffic.Poisson, RatePerMs: openRate(t, 4, 0.6)},
				DurationMs:  durationMs,
				SLAMs:       5,
				StreamStats: stream,
			})
			return run(cfg, func(res Result) int {
				return int(res.OfferedQPS * (durationMs - durationMs/20) / 1e3)
			})
		}
	}
	closed := func(scale int) highWater {
		cfg := testConfig(t, 4, RowRange, 0.01, trace.HighHot)
		cfg.Queries *= scale
		return run(cfg, func(Result) int { return cfg.Queries })
	}
	for _, mode := range []struct {
		name string
		run  func(scale int) highWater
	}{{"open-exact", open(false)}, {"open-stream", open(true)}, {"closed", closed}} {
		h1, h4 := mode.run(1), mode.run(4)
		if h4.arrivals < 3*h1.arrivals {
			t.Fatalf("%s: fixture broken: 4x run saw %d vs %d arrivals", mode.name, h4.arrivals, h1.arrivals)
		}
		if h1.subs == 0 || h1.joins == 0 {
			t.Fatalf("%s: high-water hook never fired", mode.name)
		}
		// The in-flight population is set by load, not horizon: allow
		// noise but reject anything resembling linear growth.
		if float64(h4.subs) > 2*float64(h1.subs) || float64(h4.joins) > 2*float64(h1.joins) {
			t.Fatalf("%s: live records grew with run length: subs %d -> %d, joins %d -> %d (arrivals %d -> %d)",
				mode.name, h1.subs, h4.subs, h1.joins, h4.joins, h1.arrivals, h4.arrivals)
		}
		if h4.subs > h4.arrivals/4 || h4.joins > h4.arrivals/4 {
			t.Fatalf("%s: high-water %d subs / %d joins not small against %d arrivals",
				mode.name, h4.subs, h4.joins, h4.arrivals)
		}
	}
}

// TestJoinConservationChecked runs the join's conservation invariants
// (queryJoin.checkDrained) with runtime checks on, in both latency
// sinks and both loops: after the drain no join record or sub slot is
// live, scored arrivals = scored admitted + scored shed, and scored
// admitted = latencies recorded. The open fixture sheds under hedges
// and retries; the closed one injects faults under tight deadlines
// with degraded joins, so subs resolve both by response and by
// deadline.
func TestJoinConservationChecked(t *testing.T) {
	defer func(old bool) { check.Enabled = old }(check.Enabled)
	check.Enabled = true
	closed := faultConfig(t, trace.MediumHot)
	closed.Mitigation = Mitigation{TimeoutMs: 0.4, MaxRetries: 1, HedgeDelayMs: 0.3, DegradedJoin: true}
	for name, cfg := range map[string]Config{
		"open-exact":    streamTestOpen(t, false),
		"open-stream":   streamTestOpen(t, true),
		"closed-faulty": closed,
	} {
		res, err := Simulate(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.HedgeRate == 0 || res.ShedRate == 0 && res.Availability == 1 {
			t.Fatalf("%s: fixture too tame to exercise the join: %+v", name, res)
		}
	}
}

// TestStreamStatsDeterministic: the stream-stats run is still a pure
// function of the config.
func TestStreamStatsDeterministic(t *testing.T) {
	a, err := Simulate(streamTestOpen(t, true))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Simulate(streamTestOpen(t, true))
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("stream-stats run not deterministic:\n%+v\n%+v", a, b)
	}
}

// TestOpenClosedLoopAgreement is the preallocation satellite's
// regression: the open loop driven by a constant-rate Poisson stream
// and the closed loop at the same mean arrival interval describe the
// same system, so their steady-state summaries must agree. The arrival
// processes are distinct random streams, so agreement is statistical —
// but at matched load, deviations beyond tens of percent mean one loop
// is charging different work.
func TestOpenClosedLoopAgreement(t *testing.T) {
	util := 0.5
	closed := testConfig(t, 4, RowRange, 0.01, trace.HighHot)
	closed.MeanArrivalMs = ArrivalForUtilization(closed.Plan, closed.Timing, 8, 2, util)
	closed.Queries = 4000
	cRes, err := Simulate(closed)
	if err != nil {
		t.Fatal(err)
	}

	open := openTestConfig(t, 4, &OpenLoop{
		Arrivals:   traffic.Config{Model: traffic.Poisson, RatePerMs: 1 / closed.MeanArrivalMs},
		DurationMs: float64(closed.Queries) * closed.MeanArrivalMs,
		SLAMs:      50,
	})
	oRes, err := Simulate(open)
	if err != nil {
		t.Fatal(err)
	}

	within := func(name string, a, b, tol float64) {
		t.Helper()
		if rel := math.Abs(a-b) / b; rel > tol {
			t.Errorf("%s: open %g vs closed %g (rel %.3f > %.2f)", name, a, b, rel, tol)
		}
	}
	within("Mean", oRes.Mean, cRes.Mean, 0.20)
	within("P50", oRes.P50, cRes.P50, 0.20)
	within("P95", oRes.P95, cRes.P95, 0.25)
	within("MeanFanout", oRes.MeanFanout, cRes.MeanFanout, 0.05)
	within("Utilization", oRes.Utilization, cRes.Utilization, 0.20)
	if oRes.ShedRate != 0 || oRes.Goodput == 0 {
		t.Fatalf("open-loop baseline should admit and serve everything: %+v", oRes)
	}
}
