package main

// The four workloads. Each one builds its inputs from the seed (set-up),
// then exposes a pass: the timed unit of work, one or more calls into a
// tier's public API whose outputs are digested and checked.

import (
	"context"
	"fmt"
	"runtime"

	"dlrmsim/internal/cluster"
	"dlrmsim/internal/core"
	"dlrmsim/internal/dlrm"
	"dlrmsim/internal/hetsched"
	"dlrmsim/internal/platform"
	"dlrmsim/internal/stats"
	"dlrmsim/internal/trace"
	"dlrmsim/internal/traffic"
)

// size holds every knob that scales a workload. full is what the
// benchmark runs; tiny is the smoke-test size.
type size struct {
	gridScale   int     // engine-grid model scale-down
	gridBatch   int     // engine-grid batch size
	calScale    int     // calibration model scale-down (cluster, hetsched)
	calBatch    int     // calibration batch size (hetsched gather batch)
	samples     int     // cluster samples per query
	dayMs       float64 // cluster-day horizon, in simulated ms
	dayUsers    int     // cluster-day user population
	stormQ      int     // cluster-storm closed-loop queries
	hetRequests int     // requests per hetsched-sweep point
}

var (
	fullSize = size{gridScale: 64, gridBatch: 16, calScale: 8, calBatch: 64, samples: 8,
		dayMs: 190, dayUsers: 20000, stormQ: 30000, hetRequests: 8000}
	tinySize = size{gridScale: 400, gridBatch: 4, calScale: 64, calBatch: 8, samples: 4,
		dayMs: 20, dayUsers: 200, stormQ: 300, hetRequests: 200}
)

// outcome is one simulation call's result: the digest of its output, or
// the error it returned.
type outcome struct {
	digest string
	err    error
}

// instance is a workload after set-up: its timed pass and the simulated
// work one pass does, which the throughput metrics divide by.
type instance struct {
	pass    func() []outcome
	lookups float64 // simulated embedding lookups per pass
	queries float64 // simulated queries (engine: batches) per pass
	phases  float64 // simulated phases per pass (see README.md)
	// crossCheck, when set, runs the pass's calls again at the other
	// cluster execution width; its digests must equal the pass's.
	crossCheck func() []outcome
	// state the traced run and the accuracy report read
	cells []core.Options // engine-grid
	reps  []core.Report  // engine-grid, last pass
	res   cluster.Result // cluster workloads, last call
	day   *cluster.Config
	storm *cluster.Config
	het   []hetPoint
}

// workload names one benchmark workload and its set-up.
type workload struct {
	name  string
	setup func(sz size, seed uint64, sp *spans) (*instance, error)
	// calibrated set-ups run the engine, whose pools a repeated set-up
	// must empty first to pay what a fresh process pays.
	calibrated bool
}

var workloads = []workload{
	{"engine-grid", setupEngineGrid, false},
	{"cluster-day", setupClusterDay, true},
	{"cluster-storm", setupClusterStorm, true},
	{"hetsched-sweep", setupHetsched, true},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// nproc is the host's usable CPU count; every thread count the
// benchmark asks for is at most this.
func nproc() int { return runtime.GOMAXPROCS(0) }

// gridSchemes is fig13's scheme order.
var gridSchemes = []core.Scheme{core.Baseline, core.NoHWPF, core.SWPF, core.DPHT, core.MPHT, core.Integrated}

// gridCells builds fig13's design-point grid: rm2_1/rm2_2/rm2_3 ×
// High/Medium/Low × {1 core, all cores} × 6 schemes, every cell seeded
// from the workload seed.
func gridCells(sz size, seed uint64) []core.Options {
	all := platform.CascadeLake().Cores
	var cells []core.Options
	for _, base := range dlrm.EmbeddingHeavy() {
		for _, h := range trace.ProductionHotness {
			for _, n := range []int{1, all} {
				for _, s := range gridSchemes {
					cells = append(cells, core.Options{
						Model: base.Scaled(sz.gridScale), Hotness: h, Scheme: s, Cores: n,
						BatchSize: sz.gridBatch, Batches: 1, BandwidthIterations: 2,
						Seed: stats.SplitSeed(seed, uint64(len(cells))) | 1,
					})
				}
			}
		}
	}
	return cells
}

// cellLookups is the number of embedding lookups one cell simulates.
func cellLookups(c core.Options) float64 {
	instances := 1
	if c.Scheme == core.DPHT {
		instances = 2
	}
	return float64(c.Batches * c.Cores * instances * c.BatchSize * c.Model.Tables * c.Model.LookupsPerSample)
}

// cellBatches and cellPhases count the simulated batches (queries) and
// cpusim phases one cell runs; they mirror core.Run's work list.
func cellBatches(c core.Options) float64 {
	if c.Scheme == core.DPHT {
		return float64(2 * c.Batches * c.Cores)
	}
	return float64(c.Batches * c.Cores)
}

func cellPhases(c core.Options) float64 {
	perBatch := 3 // embedding, bottom, top
	switch c.Scheme {
	case core.DPHT:
		perBatch = 1
	case core.MPHT, core.Integrated:
		perBatch = 2
	}
	return float64(c.Batches * c.Cores * perBatch)
}

func setupEngineGrid(sz size, seed uint64, sp *spans) (*instance, error) {
	id := sp.begin("setup.grid", 0)
	cells := gridCells(sz, seed)
	for i, c := range cells {
		if err := c.Validate(); err != nil {
			return nil, fmt.Errorf("cell %d: %w", i, err)
		}
	}
	sp.end(id)
	in := &instance{cells: cells}
	for _, c := range cells {
		in.lookups += cellLookups(c)
		in.queries += cellBatches(c)
		in.phases += cellPhases(c)
	}
	workers := nproc()
	in.pass = func() []outcome {
		reps, err := core.RunCells(context.Background(), cells, workers)
		out := make([]outcome, len(cells))
		for i := range out {
			if err != nil {
				out[i].err = err
				continue
			}
			out[i].digest = digest(reps[i])
		}
		if err == nil {
			in.reps = reps
		}
		return out
	}
	return in, nil
}

// calibration is the engine run that sets the cluster and hetsched
// service models: rm2_1, Medium Hot, baseline, all cores.
type calibration struct {
	model   dlrm.Config
	cores   int
	timing  cluster.Timing
	lookups int // lookups per batch = per query
}

func calibrate(sz size, seed uint64, sp *spans) (calibration, error) {
	cal := calibration{model: dlrm.RM2Small().Scaled(sz.calScale), cores: platform.CascadeLake().Cores}
	id := sp.begin("core.Run.calibration", 0)
	rep, err := core.Run(core.Options{
		Model: cal.model, Hotness: trace.MediumHot, Scheme: core.Baseline, Cores: cal.cores,
		BatchSize: sz.calBatch, BandwidthIterations: 2, Seed: seed | 1,
	})
	sp.end(id)
	if err != nil {
		return cal, fmt.Errorf("calibration: %w", err)
	}
	cal.lookups = sz.calBatch * cal.model.Tables * cal.model.LookupsPerSample
	cal.timing = cluster.TimingFromReport(rep, platform.CascadeLake(), cal.lookups)
	return cal, nil
}

// clusterConfig returns a cluster workload's config (nil otherwise).
func (in *instance) clusterConfig() *cluster.Config {
	if in.day != nil {
		return in.day
	}
	return in.storm
}

// simulateAt runs one cluster simulation under the given execution width
// (1 = sequential) and restores the previous backend.
func simulateAt(cfg cluster.Config, p int) (cluster.Result, error) {
	restore := cluster.SetExecBackend(cluster.Parallel(p))
	defer restore()
	return cluster.Simulate(cfg)
}

// clusterPass wraps one Simulate call at width p as a pass; the result
// is kept for the copy count and the traced run.
func (in *instance) clusterPass(cfg *cluster.Config, p int) func() []outcome {
	return func() []outcome {
		res, err := simulateAt(*cfg, p)
		if err != nil {
			return []outcome{{err: err}}
		}
		in.res = res
		return []outcome{{digest: digest(res)}}
	}
}

// cluster-day's load, sized from the service model. The analytic
// capacity estimate ignores replication, so the real utilization is
// lower: at this base load the diurnal peak sheds a few percent.
const (
	dayServers = 2
	dayUtil    = 1.2 // base load; the diurnal peak is dayUtil·(1+dayAmp)
	dayAmp     = 0.5
)

// replFrac is both cluster workloads' hot-row replication fraction.
const replFrac = 0.01

func setupClusterDay(sz size, seed uint64, sp *spans) (*instance, error) {
	cal, err := calibrate(sz, seed, sp)
	if err != nil {
		return nil, err
	}
	id := sp.begin("setup.plan", 0)
	defer sp.end(id)
	plan, err := cluster.NewPlan(cal.model, 8, cluster.RowRange, replFrac, seed)
	if err != nil {
		return nil, err
	}
	rate := 1 / cluster.ArrivalForUtilization(plan, cal.timing, sz.samples, dayServers, dayUtil)
	sla := 8 * cluster.QueryWorkMs(plan, cal.timing, sz.samples)
	cfg := cluster.Config{
		Plan:            plan,
		Hotness:         trace.MediumHot,
		SamplesPerQuery: sz.samples,
		Timing:          cal.timing,
		Net:             cluster.DefaultNetwork(),
		ServersPerNode:  dayServers,
		JitterFrac:      0.08,
		Open: &cluster.OpenLoop{
			Arrivals: traffic.Config{
				Model: traffic.Poisson, RatePerMs: rate, DayMs: sz.dayMs, DiurnalAmp: dayAmp,
			},
			Population:  &traffic.Population{Users: sz.dayUsers, RevisitProb: 0.6, Affinity: 0.5},
			DurationMs:  sz.dayMs,
			SLAMs:       sla,
			Admission:   cluster.Admission{Policy: cluster.ShedOverBudget, QueueBudgetMs: sla / 2},
			StreamStats: true,
		},
		Seed: seed,
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	in := &instance{day: &cfg}
	in.pass = in.clusterPass(in.day, nproc())
	in.crossCheck = in.clusterPass(in.day, 1)
	in.setUnits(dayArrivals(cfg), &cfg)
	return in, nil
}

// dayArrivals replays the day's arrival stream exactly as the open loop
// seeds it, returning the number of arrivals over the horizon.
func dayArrivals(cfg cluster.Config) int {
	s, err := dayStream(cfg)
	if err != nil {
		return 0
	}
	n := 0
	for s.Next() < cfg.Open.DurationMs {
		n++
	}
	return n
}

// Seed salts the open loop derives its arrival and population streams
// with (internal/cluster/openloop.go); the traced run replays those
// streams and must draw the same arrivals.
const (
	saltOpenArrivals uint64 = 0x09E4A1
	saltOpenUsers    uint64 = 0x09E4A2
)

func dayStream(cfg cluster.Config) (*traffic.Stream, error) {
	ar := cfg.Open.Arrivals
	ar.Seed = stats.SplitSeed(cfg.Seed^saltOpenArrivals, 0)
	return traffic.NewStream(ar)
}

func dayPopulation(cfg cluster.Config) traffic.Population {
	pop := *cfg.Open.Population
	pop.Seed = stats.SplitSeed(cfg.Seed^saltOpenUsers, 0)
	return pop
}

// setUnits fills the per-pass work counts of a cluster workload that
// simulates `queries` queries. Its phases are the sub-request copies
// served, known after the first pass.
func (in *instance) setUnits(queries int, cfg *cluster.Config) {
	m := cfg.Plan.Model
	in.queries = float64(queries)
	in.lookups = float64(queries * cfg.SamplesPerQuery * m.Tables * m.LookupsPerSample)
}

func setupClusterStorm(sz size, seed uint64, sp *spans) (*instance, error) {
	cal, err := calibrate(sz, seed, sp)
	if err != nil {
		return nil, err
	}
	id := sp.begin("setup.plan", 0)
	defer sp.end(id)
	plan, err := cluster.NewPlan(cal.model, 8, cluster.RowRange, replFrac, seed)
	if err != nil {
		return nil, err
	}
	servers := cal.cores
	arrival := cluster.ArrivalForUtilization(plan, cal.timing, sz.samples, servers, 0.30)
	cfg := cluster.Config{
		Plan:            plan,
		Hotness:         trace.RandomAccess,
		SamplesPerQuery: sz.samples,
		Timing:          cal.timing,
		Net:             cluster.DefaultNetwork(),
		ServersPerNode:  servers,
		MeanArrivalMs:   arrival,
		JitterFrac:      0.08,
		Queries:         sz.stormQ / 10,
		Seed:            seed,
	}
	// The clean reference run every deadline calibrates off, as clu4 does.
	clean, err := cluster.Simulate(cfg)
	if err != nil {
		return nil, fmt.Errorf("clean reference: %w", err)
	}
	horizon := float64(sz.stormQ) * arrival
	cfg.Queries = sz.stormQ
	cfg.Faults = cluster.FaultModel{ // clu4's "moderate" intensity
		SlowdownEveryMs: 250 * arrival,
		SlowdownMeanMs:  60 * arrival,
		SlowdownFactor:  4,
		DownEveryMs:     400 * arrival,
		DownMeanMs:      25 * arrival,
		DropProb:        0.01,
		DropDetectMs:    7 * arrival,
	}
	cfg.Chaos = cluster.ChaosSchedule{
		Domains: 4,
		Events: []cluster.ChaosEvent{
			{Kind: cluster.DomainOutage, Domain: 2, AtMs: 0.3 * horizon, ForMs: 0.1 * horizon},
		},
	}
	cfg.Mitigation = cluster.Mitigation{
		TimeoutMs: 2 * clean.P95, MaxRetries: 2, HedgeDelayMs: 2 * clean.P95,
		RetryBudget: 0.5, AdaptEpochMs: 8 * arrival,
		BreakerTripRate: 0.5, BreakerMinSamples: 4,
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	in := &instance{storm: &cfg}
	in.pass = in.clusterPass(in.storm, 1)
	in.crossCheck = in.clusterPass(in.storm, nproc())
	in.setUnits(sz.stormQ, &cfg)
	return in, nil
}

// hetPoint is one hetsched-sweep simulation.
type hetPoint struct {
	name string
	cfg  hetsched.Config
}

func setupHetsched(sz size, seed uint64, sp *spans) (*instance, error) {
	cal, err := calibrate(sz, seed, sp)
	if err != nil {
		return nil, err
	}
	id := sp.begin("setup.graph", 0)
	defer sp.end(id)
	// hetGraph's calibration: gather costs the cold per-lookup time over
	// the batch's lookups, the dense phases split the dense-stage time.
	g := hetsched.DLRMGraph(cal.timing.ColdLookupUs*float64(cal.lookups), cal.timing.DenseMs*1e3)
	var pts []hetPoint
	// het1: device mix × placement policy at ~75% utilization.
	for _, mix := range hetsched.Mixes {
		devs, err := hetsched.NewMix(mix)
		if err != nil {
			return nil, err
		}
		arrival := hetsched.ArrivalForUtilization(g, devs, 0.75)
		for _, pol := range hetsched.AllPolicies {
			pts = append(pts, hetPoint{"het1/" + mix + "/" + pol.String(), hetsched.Config{
				Graph: g, Devices: devs, Policy: pol, MeanArrivalMs: arrival,
				Requests: sz.hetRequests, JitterFrac: 0.25, Seed: seed,
			}})
		}
	}
	// het2: GPU max batch × offered load on cpu2gpu1 under affinity.
	ref, err := gpuFleet(64, 40)
	if err != nil {
		return nil, err
	}
	for _, util := range []float64{0.35, 0.85} {
		arrival := hetsched.ArrivalForUtilization(g, ref, util)
		for _, pt := range []struct {
			maxBatch int
			holdUs   float64
		}{{1, 0}, {4, 40}, {16, 40}, {64, 40}, {64, 0}} {
			devs, err := gpuFleet(pt.maxBatch, pt.holdUs)
			if err != nil {
				return nil, err
			}
			pts = append(pts, hetPoint{fmt.Sprintf("het2/%.2f/b%d/h%g", util, pt.maxBatch, pt.holdUs), hetsched.Config{
				Graph: g, Devices: devs, Policy: hetsched.Affinity, MeanArrivalMs: arrival,
				Requests: sz.hetRequests, Seed: seed,
			}})
		}
	}
	for _, p := range pts {
		if err := p.cfg.Validate(); err != nil {
			return nil, fmt.Errorf("%s: %w", p.name, err)
		}
	}
	in := &instance{het: pts}
	for _, p := range pts {
		in.queries += float64(p.cfg.Requests)
		in.phases += float64(p.cfg.Requests * len(g.Phases))
		in.lookups += float64(p.cfg.Requests * cal.lookups)
	}
	in.pass = func() []outcome {
		out := make([]outcome, len(pts))
		for i, p := range pts {
			res, err := hetsched.Simulate(p.cfg)
			out[i] = outcome{digest: digest(res), err: err}
		}
		return out
	}
	return in, nil
}

// gpuFleet is the cpu2gpu1 mix with the GPU's batch limit and hold
// window overridden, as het2 builds it.
func gpuFleet(maxBatch int, holdUs float64) ([]hetsched.DeviceSpec, error) {
	devs, err := hetsched.NewMix("cpu2gpu1")
	if err != nil {
		return nil, err
	}
	for i := range devs {
		if devs[i].Class == hetsched.GPUClass {
			devs[i].MaxBatch = maxBatch
			devs[i].HoldUs = holdUs
		}
	}
	return devs, nil
}
