package main

// The traced run: per-layer metrics, derived from spans the benchmark
// records around its own calls into each layer's public functions.
// Layers the program calls internally (the Zipf sampler, the traffic
// stream, serving queues, the event wheel, trace generation) are timed
// by replaying the run's call volume through the same public functions.

import (
	"math"
	"runtime"
	"time"

	"dlrmsim/internal/cluster"
	"dlrmsim/internal/core"
	"dlrmsim/internal/cpusim"
	"dlrmsim/internal/eventq"
	"dlrmsim/internal/hetsched"
	"dlrmsim/internal/platform"
	"dlrmsim/internal/serve"
	"dlrmsim/internal/stats"
	"dlrmsim/internal/trace"
	"dlrmsim/internal/traffic"
)

// perLayer lists every per-layer metric with its unit, in the order
// BENCHMARK.json lists them. A traced run reports all of them; a layer
// the workload does not exercise reads 0.
var perLayer = []struct{ name, unit string }{
	{"core.busy_s", "s"},
	{"core.cell_ms_p50", "ms"},
	{"core.cell_ms_max", "ms"},
	{"core.worker_eff", "fraction"},
	{"core.ns_per_lookup", "ns"},
	{"core.timing_s", "s"},
	{"cpusim.new_system_ms", "ms"},
	{"trace.gen_s", "s"},
	{"embedding.lookups", "count"},
	{"memsim.dram_mb", "MB"},
	{"memsim.l1_hit_rate_mean", "fraction"},
	{"cpusim.sw_prefetches", "count"},
	{"stats.zipf_draws", "count"},
	{"stats.zipf_s", "s"},
	{"stats.zipf_ns_per_draw", "ns"},
	{"traffic.arrivals", "count"},
	{"traffic.stream_s", "s"},
	{"traffic.visitors_s", "s"},
	{"cluster.simulate_p1_s", "s"},
	{"cluster.simulate_pN_s", "s"},
	{"cluster.parallel_speedup", "x"},
	{"cluster.residual_p1_s", "s"},
	{"cluster.copies", "count"},
	{"cluster.ns_per_copy", "ns"},
	{"cluster.useful_copy_frac", "fraction"},
	{"cluster.bytes_per_query", "B"},
	{"cluster.shed_frac", "fraction"},
	{"cluster.goodput_frac", "fraction"},
	{"serve.submit_ns", "ns"},
	{"eventq.wheel_ns", "ns"},
	{"hetsched.cell_ms_p50", "ms"},
	{"hetsched.cell_ms_max", "ms"},
	{"hetsched.phases", "count"},
	{"hetsched.ns_per_phase", "ns"},
	{"hetsched.backlog_share", "fraction"},
	{"hetsched.batch_items_mean", "count"},
	{"hetsched.steals", "count"},
	{"bench.trace_overhead_frac", "fraction"},
	{"error_rate", "fraction"},
}

// layerValues collects per-layer values by name.
type layerValues map[string]float64

func (v layerValues) metrics() map[string]metric {
	m := make(map[string]metric, len(perLayer))
	for _, l := range perLayer {
		m[l.name] = metric{v[l.name], l.unit}
	}
	return m
}

// tracedRun sets the workload up once under spans, runs its layer
// probes, checks every output it produced, and derives the per-layer
// metrics from the spans.
func tracedRun(w workload, o runOpts, sp *spans, ck *checker, inf *info) (map[string]metric, error) {
	in, err := w.setup(o.size, o.seed, sp)
	if err != nil {
		return nil, err
	}
	v := layerValues{"core.timing_s": sp.total("core.Run.calibration")}
	switch {
	case in.cells != nil:
		traceGrid(in, sp, ck, v)
		inf.Model = gridAccuracy(in)
	case in.day != nil:
		traceCluster(in, in.day, nproc(), sp, ck, v)
	case in.storm != nil:
		traceCluster(in, in.storm, 1, sp, ck, v)
	case in.het != nil:
		traceHetsched(in, sp, ck, v)
	}
	if ck.attempted > 0 {
		v["error_rate"] = float64(ck.failed) / float64(ck.attempted)
	}
	return v.metrics(), nil
}

// countingProvider hands core.Run a dataset built exactly as core.Run
// builds it, recording each (batch, table) the run asks for.
type countingProvider struct {
	ds    *trace.Dataset
	calls [][2]int
}

func (p *countingProvider) Batch(b, t int) trace.TableBatch {
	p.calls = append(p.calls, [2]int{b, t})
	return p.ds.Batch(b, t)
}

// cellDataset is the trace.Config core.Run synthesizes for a cell.
func cellDataset(c core.Options) trace.Config {
	instances := 1
	if c.Scheme == core.DPHT {
		instances = 2
	}
	return trace.Config{
		Hotness: c.Hotness, Rows: c.Model.RowsPerTable, Tables: c.Model.Tables,
		BatchSize: c.BatchSize, LookupsPerSample: c.Model.LookupsPerSample,
		Batches: c.Batches * c.Cores * instances, Seed: c.Seed ^ 0xDA7A,
	}
}

// traceGrid: one untraced pass at nproc workers (for worker efficiency),
// cpusim.NewSystem per distinct parameter set, then the grid one cell at
// a time, untraced and traced, with each cell's trace generation
// replayed after it.
func traceGrid(in *instance, sp *spans, ck *checker, v layerValues) {
	t0 := time.Now()
	ck.check(in.pass())
	passS := time.Since(t0).Seconds()

	seen := map[cpusim.SystemParams]bool{}
	for _, c := range in.cells {
		cpu := c.CPU
		if cpu.Name == "" {
			cpu = platform.CascadeLake()
		}
		mem := cpu.Mem
		mem.HWPrefetch = c.Scheme != core.NoHWPF
		p := cpusim.SystemParams{Core: cpu.Core, Mem: mem, Cores: c.Cores, BandwidthIterations: c.BandwidthIterations}
		if seen[p] {
			continue
		}
		seen[p] = true
		id := sp.begin("cpusim.NewSystem", 0)
		sink(cpusim.NewSystem(p))
		sp.end(id)
	}

	t0 = time.Now()
	for _, c := range in.cells {
		_, _ = core.Run(c) // outputs are checked on the traced repeat below
	}
	untraced := time.Since(t0).Seconds()

	outs := make([]outcome, len(in.cells))
	var dram, l1, pf float64
	for i, c := range in.cells {
		ds, err := trace.NewDataset(cellDataset(c))
		if err != nil {
			outs[i].err = err
			continue
		}
		prov := &countingProvider{ds: ds}
		c.Trace = prov
		id := sp.begin("core.Run", 0)
		rep, err := core.Run(c)
		sp.end(id)
		sp.count(id, "lookups", cellLookups(c))
		outs[i] = outcome{digest: digest(rep), err: err}
		dram += float64(rep.DRAMBytes)
		l1 += rep.L1HitRate
		pf += float64(rep.SWPrefetches)

		rid := sp.begin("trace.replay", id)
		if ds, err := trace.NewDataset(cellDataset(c)); err == nil {
			for _, bt := range prov.calls {
				sink(ds.Batch(bt[0], bt[1]))
			}
		}
		sp.end(rid)
		sp.count(rid, "batches", float64(len(prov.calls)))
	}
	ck.check(outs)

	cells := sp.durations("core.Run")
	busy := sp.total("core.Run")
	v["core.busy_s"] = busy
	v["core.cell_ms_p50"] = median(cells) * 1e3
	v["core.cell_ms_max"] = maxOf(cells) * 1e3
	v["core.worker_eff"] = busy / (float64(nproc()) * passS)
	lookups := sp.counted("core.Run", "lookups")
	v["core.ns_per_lookup"] = busy * 1e9 / lookups
	v["cpusim.new_system_ms"] = median(sp.durations("cpusim.NewSystem")) * 1e3
	v["trace.gen_s"] = sp.total("trace.replay")
	v["embedding.lookups"] = lookups
	v["memsim.dram_mb"] = dram / 1e6
	v["memsim.l1_hit_rate_mean"] = l1 / float64(len(in.cells))
	v["cpusim.sw_prefetches"] = pf
	v["bench.trace_overhead_frac"] = busy/untraced - 1
}

// scoredQueries is the denominator of Result.RetryAmplification: the
// post-warmup queries the run scored (admitted ones, open loop).
func scoredQueries(cfg *cluster.Config, res cluster.Result) float64 {
	if cfg.Open == nil {
		return float64(cfg.Queries - cfg.Queries/20)
	}
	window := cfg.Open.DurationMs * 0.95
	return math.Round(res.OfferedQPS * window / 1e3 * (1 - res.ShedRate))
}

// copiesOf is the number of sub-request copies a run served.
func copiesOf(cfg *cluster.Config, res cluster.Result) float64 {
	return math.Round(res.RetryAmplification * scoredQueries(cfg, res))
}

// traceCluster: the timed Simulate untraced and traced at its own width
// (the first full-size call also gives bytes per query), once at the
// other width, then replays of the sampler, traffic, serving-queue and
// event-wheel volume the run implies.
func traceCluster(in *instance, cfg *cluster.Config, width int, sp *spans, ck *checker, v layerValues) {
	// The first full-size call grows the cluster's run arena from empty,
	// so its allocation is what one run needs; it is not timed.
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	a0 := ms.TotalAlloc
	ck.check(in.clusterPass(cfg, width)())
	runtime.ReadMemStats(&ms)
	queries := in.queries
	v["cluster.bytes_per_query"] = float64(ms.TotalAlloc-a0) / queries

	t0 := time.Now()
	ck.check(in.clusterPass(cfg, width)())
	untraced := time.Since(t0).Seconds()
	spanName := map[bool]string{true: "cluster.Simulate.p1", false: "cluster.Simulate.pN"}
	other := 1
	if width == 1 {
		other = nproc()
	}
	for _, p := range []int{width, other} {
		id := sp.begin(spanName[p == 1], 0)
		ck.check(in.clusterPass(cfg, p)())
		sp.end(id)
	}
	res := in.res
	traced := sp.total(spanName[width == 1])
	p1, pN := sp.total("cluster.Simulate.p1"), sp.total("cluster.Simulate.pN")
	v["cluster.simulate_p1_s"] = p1
	v["cluster.simulate_pN_s"] = pN
	v["cluster.parallel_speedup"] = p1 / pN
	v["bench.trace_overhead_frac"] = traced/untraced - 1

	plan := cfg.Plan
	model := plan.Model
	draws := 0.0
	if cfg.Hotness != trace.RandomAccess && cfg.Hotness != trace.OneItem {
		draws = queries * float64(model.Tables*cfg.SamplesPerQuery*model.LookupsPerSample)
	}
	zs := 0.0
	if draws > 0 {
		zid := sp.begin("stats.Zipf.SampleWith", 0)
		z := stats.NewSharedZipf(model.RowsPerTable, cfg.Hotness.ReferenceExponent())
		rng := stats.SeededRNG(cfg.Seed)
		acc := 0
		for i := 0; i < int(draws); i++ {
			acc += z.SampleWith(&rng)
		}
		sink(acc)
		sp.end(zid)
		sp.count(zid, "draws", draws)
		zs = sp.total("stats.Zipf.SampleWith")
		draws = sp.counted("stats.Zipf.SampleWith", "draws")
		v["stats.zipf_ns_per_draw"] = zs * 1e9 / draws
	}
	v["stats.zipf_draws"] = draws
	v["stats.zipf_s"] = zs

	traf := 0.0
	if cfg.Open != nil {
		sid := sp.begin("traffic.Stream", 0)
		arrivals := dayArrivals(*cfg)
		sp.end(sid)
		sp.count(sid, "arrivals", float64(arrivals))
		vid := sp.begin("traffic.Visitors", 0)
		if vis, err := traffic.NewVisitors(dayPopulation(*cfg)); err == nil {
			for i := 0; i < arrivals; i++ {
				u, _ := vis.Next()
				sink(u)
			}
		}
		sp.end(vid)
		v["traffic.arrivals"] = sp.counted("traffic.Stream", "arrivals")
		v["traffic.stream_s"] = sp.total("traffic.Stream")
		v["traffic.visitors_s"] = sp.total("traffic.Visitors")
		traf = v["traffic.stream_s"] + v["traffic.visitors_s"]
	}
	v["cluster.residual_p1_s"] = p1 - zs - traf

	copies := copiesOf(cfg, res)
	v["cluster.copies"] = copies
	v["cluster.ns_per_copy"] = p1 * 1e9 / copies
	if res.RetryAmplification > 0 {
		v["cluster.useful_copy_frac"] = res.MeanFanout / res.RetryAmplification
	}
	v["cluster.shed_frac"] = res.ShedRate
	if res.OfferedQPS > 0 {
		v["cluster.goodput_frac"] = res.Goodput / res.OfferedQPS
	}

	horizon := cfg.MeanArrivalMs * float64(cfg.Queries)
	if cfg.Open != nil {
		horizon = cfg.Open.DurationMs
	}
	v["serve.submit_ns"] = replaySubmit(sp, int(copies), plan.Nodes, cfg.ServersPerNode, horizon, cfg.Timing)
	if cfg.Open != nil {
		v["eventq.wheel_ns"] = replayWheel(sp, int(copies), horizon, cfg.Seed)
	}
}

// replaySubmit submits n copies round-robin over nodes×servers FCFS
// queues at evenly spaced arrivals and returns ns per Submit.
func replaySubmit(sp *spans, n, nodes, servers int, horizonMs float64, tm cluster.Timing) float64 {
	if n == 0 {
		return 0
	}
	qs := make([]*serve.Queue, nodes)
	for i := range qs {
		qs[i] = serve.NewQueue(servers)
	}
	gap := horizonMs / float64(n)
	svc := tm.SubRequestUs / 1e3
	id := sp.begin("serve.Queue.Submit", 0)
	acc := 0.0
	for i := 0; i < n; i++ {
		_, done := qs[i%nodes].Submit(float64(i)*gap, svc)
		acc += done
	}
	sink(acc)
	sp.end(id)
	sp.count(id, "submits", float64(n))
	return sp.total("serve.Queue.Submit") * 1e9 / float64(n)
}

// wheelEvent is a copy-sized event for the wheel replay.
type wheelEvent struct {
	at  float64
	seq int
}

// replayWheel pushes n events at evenly spaced instants, each due a
// random delay later, popping everything due before each push (the
// wheel's monotone-push contract), and returns ns per Push+Pop.
func replayWheel(sp *spans, n int, horizonMs float64, seed uint64) float64 {
	if n == 0 {
		return 0
	}
	w := eventq.NewWheel(0.25, 4096, 0,
		func(e wheelEvent) float64 { return e.at },
		func(a, b wheelEvent) bool { return a.at < b.at || (a.at == b.at && a.seq < b.seq) })
	rng := stats.SeededRNG(seed)
	gap := horizonMs / float64(n)
	id := sp.begin("eventq.Wheel", 0)
	acc := 0
	for i := 0; i < n; i++ {
		now := float64(i) * gap
		for w.Len() > 0 && w.Min().at <= now {
			acc += w.Pop().seq
		}
		w.Push(wheelEvent{at: now + rng.Float64()*64*gap, seq: i})
	}
	for w.Len() > 0 {
		acc += w.Pop().seq
	}
	sink(acc)
	sp.end(id)
	sp.count(id, "events", float64(n))
	return sp.total("eventq.Wheel") * 1e9 / float64(n)
}

// traceHetsched: the sweep once untraced, then once with a span per
// point.
func traceHetsched(in *instance, sp *spans, ck *checker, v layerValues) {
	t0 := time.Now()
	ck.check(in.pass())
	untraced := time.Since(t0).Seconds()

	outs := make([]outcome, len(in.het))
	var items, batched, steals, backlogged float64
	for i, p := range in.het {
		n := float64(p.cfg.Requests * len(p.cfg.Graph.Phases))
		id := sp.begin("hetsched.Simulate", 0)
		res, err := hetsched.Simulate(p.cfg)
		sp.end(id)
		sp.count(id, "phases", n)
		outs[i] = outcome{digest: digest(res), err: err}
		if res.MeanBatchItems > 0 {
			items += res.MeanBatchItems
			batched++
		}
		steals += float64(res.Steals)
		// A point is backlogged when its mean phase wait exceeds the
		// graph's total work: requests queue faster than they drain.
		if res.MeanPhaseWaitMs > graphWorkMs(p.cfg.Graph) {
			backlogged += sp.duration(id)
		}
	}
	ck.check(outs)
	cells := sp.durations("hetsched.Simulate")
	total := sp.total("hetsched.Simulate")
	v["hetsched.cell_ms_p50"] = median(cells) * 1e3
	v["hetsched.cell_ms_max"] = maxOf(cells) * 1e3
	phases := sp.counted("hetsched.Simulate", "phases")
	v["hetsched.phases"] = phases
	v["hetsched.ns_per_phase"] = total * 1e9 / phases
	v["hetsched.backlog_share"] = backlogged / total
	if batched > 0 {
		v["hetsched.batch_items_mean"] = items / batched
	}
	v["hetsched.steals"] = steals
	v["bench.trace_overhead_frac"] = total/untraced - 1
}

func graphWorkMs(g hetsched.Graph) float64 {
	t := 0.0
	for _, w := range g.KindWorkUs() {
		t += w
	}
	return t / 1e3
}

// gridAccuracy reports, beside fig13's note, each scheme's geomean
// speedup over baseline across the grid's model × hotness combos, per
// core count. Informational: the grid runs at a reduced scale.
func gridAccuracy(in *instance) map[string]any {
	if len(in.reps) != len(in.cells) {
		return nil
	}
	out := map[string]any{
		"paper_fig13": "SW-PF 1.21–1.46x single / 1.18–1.42x multi; DP-HT down to 0.62x; MP-HT up to 1.24x; Integrated 1.40–1.59x single / 1.29–1.43x multi",
	}
	k := len(gridSchemes)
	for si, s := range []string{"nohwpf", "swpf", "dpht", "mpht", "integrated"} { // gridSchemes[1:]
		for _, cores := range []string{"single", "multi"} {
			var sp []float64
			for base := 0; base < len(in.cells); base += k {
				if (in.cells[base].Cores == 1) != (cores == "single") {
					continue
				}
				sp = append(sp, in.reps[base+si+1].Speedup(in.reps[base]))
			}
			out["model."+s+"_"+cores+"_geomean"] = stats.GeoMean(sp)
		}
	}
	return out
}

// sinkHole keeps replayed results alive so the compiler cannot drop the
// calls being timed.
var sinkHole any

func sink(v any) { sinkHole = v }
