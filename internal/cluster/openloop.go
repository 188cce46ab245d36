package cluster

// The cluster tier's one event loop (DESIGN.md §11), which both Simulate
// modes run, and the open-loop live-traffic configuration it serves.
// Production serving is open-loop — users do not wait for each other's
// responses, so offered load is a function of time, not of the system's
// progress. An open-loop run drives the loop from an internal/traffic
// arrival stream (Poisson/MMPP with diurnal ramps and flash crowds) and a
// synthetic user population, adds router-side admission control that
// sheds queries when the backlog of the involved nodes exceeds an SLA
// budget, and an autoscaler that grows and drains the active node set
// mid-run. A closed-loop run is the same loop fed a fixed count of
// Poisson arrivals, admitting everything, with no autoscaler.
//
// Admission decisions must observe queue state at arrival time, so the
// run is a single event loop over three deterministic event sources —
// autoscaler control ticks, arrivals off the pre-draw ring, and a
// calendar wheel of scheduled sub-request copies in (arrive, seq,
// attempt) order. At equal instants ticks precede arrivals precede
// copies; every source is a pure function of (Seed, index) via
// stats.SplitSeed, so results keep the registry-wide
// byte-identical-at-any-worker-count determinism property.
//
// Autoscaling never re-shards: the plan stays fixed and the autoscaler
// moves nodes in and out of an *active set*. Sub-requests route to the
// first active node in the shard's standby chain (the same chain retries
// walk), a drain is pure route-away — in-flight work completes, new work
// skips the node — and a provisioning node reuses the fault model's
// outage machinery (serve.Queue.Unavailable) to hold its servers shut
// until it is warm.

import (
	"fmt"
	"math"

	"dlrmsim/internal/check"
	"dlrmsim/internal/stats"
	"dlrmsim/internal/trace"
	"dlrmsim/internal/traffic"
)

// seed salts for the open-loop tier's derived streams.
const (
	saltOpenArrivals uint64 = 0x09E4A1
	saltOpenUsers    uint64 = 0x09E4A2
)

// AdmissionPolicy selects the router's load-shedding behavior.
type AdmissionPolicy int

const (
	// AdmitAll never sheds: every arrival is dispatched however deep the
	// queues are (the no-shed baseline).
	AdmitAll AdmissionPolicy = iota
	// ShedOverBudget sheds an arrival when the worst backlog over the
	// nodes it would fan out to exceeds Admission.QueueBudgetMs. A
	// backlog exactly at the budget is admitted.
	ShedOverBudget
)

// String returns the policy's CLI spelling.
func (p AdmissionPolicy) String() string {
	switch p {
	case AdmitAll:
		return "none"
	case ShedOverBudget:
		return "shed"
	default:
		return "invalid"
	}
}

// ParseAdmissionPolicy resolves a policy from its CLI spelling.
func ParseAdmissionPolicy(name string) (AdmissionPolicy, error) {
	switch name {
	case "none":
		return AdmitAll, nil
	case "shed":
		return ShedOverBudget, nil
	}
	return 0, fmt.Errorf("cluster: unknown admission policy %q", name)
}

// Admission is the router's load-shedding configuration. The zero value
// admits everything.
type Admission struct {
	// Policy selects the shedding rule.
	Policy AdmissionPolicy
	// QueueBudgetMs is the per-node backlog budget ShedOverBudget
	// enforces; queries whose involved nodes are all at or under it are
	// admitted.
	QueueBudgetMs float64
}

// shed decides one arrival's fate from the worst backlog (ms) over the
// nodes it would fan out to. The boundary is strict: a backlog exactly at
// the budget is admitted.
func (a Admission) shed(worstBacklogMs float64) bool {
	return a.Policy == ShedOverBudget && worstBacklogMs > a.QueueBudgetMs
}

func (a Admission) validateErrs() []error {
	var errs []error
	switch a.Policy {
	case AdmitAll:
		if a.QueueBudgetMs != 0 {
			errs = append(errs, fmt.Errorf("cluster: queue budget %g ms needs the shed admission policy", a.QueueBudgetMs))
		}
	case ShedOverBudget:
		if a.QueueBudgetMs <= 0 {
			errs = append(errs, fmt.Errorf("cluster: shed admission needs a positive queue budget (got %g ms)", a.QueueBudgetMs))
		}
	default:
		errs = append(errs, fmt.Errorf("cluster: invalid admission policy %d", a.Policy))
	}
	return errs
}

// Autoscaler grows and drains the active node set on a fixed control
// cadence, driven by the mean backlog over active nodes.
type Autoscaler struct {
	// IntervalMs is the control-loop tick period.
	IntervalMs float64
	// UpBacklogMs triggers a scale-up when the mean active-node backlog
	// exceeds it at a tick.
	UpBacklogMs float64
	// DownBacklogMs triggers a drain when the mean backlog falls below it
	// (must be below UpBacklogMs to avoid flapping).
	DownBacklogMs float64
	// ProvisionMs is the delay before a scaled-up node starts serving —
	// its queue is held shut with the outage machinery until then, and it
	// joins the active set at the first tick past readiness. At most one
	// node provisions at a time.
	ProvisionMs float64
	// MinNodes floors the active set (0 means 1).
	MinNodes int
	// MaxNodes caps the active set (0 means the plan's node count).
	MaxNodes int
}

func (a *Autoscaler) validateErrs(nodes int) []error {
	var errs []error
	if a.IntervalMs <= 0 {
		errs = append(errs, fmt.Errorf("cluster: autoscaler needs a positive control interval (got %g ms)", a.IntervalMs))
	}
	if a.UpBacklogMs <= 0 {
		errs = append(errs, fmt.Errorf("cluster: autoscaler needs a positive scale-up backlog threshold (got %g ms)", a.UpBacklogMs))
	}
	if a.DownBacklogMs < 0 {
		errs = append(errs, fmt.Errorf("cluster: negative scale-down threshold %g ms", a.DownBacklogMs))
	}
	if a.UpBacklogMs > 0 && a.DownBacklogMs >= a.UpBacklogMs {
		errs = append(errs, fmt.Errorf("cluster: scale-down threshold %g ms must sit below scale-up threshold %g ms",
			a.DownBacklogMs, a.UpBacklogMs))
	}
	if a.ProvisionMs < 0 {
		errs = append(errs, fmt.Errorf("cluster: negative provisioning delay %g ms", a.ProvisionMs))
	}
	if a.MinNodes < 0 || a.MinNodes > nodes {
		errs = append(errs, fmt.Errorf("cluster: autoscaler floor %d outside [0,%d]", a.MinNodes, nodes))
	}
	if a.MaxNodes < 0 || a.MaxNodes > nodes {
		errs = append(errs, fmt.Errorf("cluster: autoscaler cap %d outside [0,%d]", a.MaxNodes, nodes))
	}
	minN, maxN := a.MinNodes, a.MaxNodes
	if minN == 0 {
		minN = 1
	}
	if maxN == 0 {
		maxN = nodes
	}
	if minN > maxN {
		errs = append(errs, fmt.Errorf("cluster: autoscaler floor %d above cap %d", minN, maxN))
	}
	return errs
}

// OpenLoop configures the live-traffic mode of Simulate.
type OpenLoop struct {
	// Arrivals is the traffic stream. Its Seed must be left zero — the
	// stream seed is derived from the cluster Config.Seed so one seed
	// still determines the whole run.
	Arrivals traffic.Config
	// Population, when set, attributes arrivals to synthetic users whose
	// revisits layer per-user embedding locality on the hotness class
	// (its Seed must likewise be left zero). Without it every arrival is
	// a fresh anonymous query round-robined across home nodes.
	Population *traffic.Population
	// DurationMs is the simulated horizon; arrivals stop there and
	// in-flight queries run to completion.
	DurationMs float64
	// WarmupMs excludes early arrivals from every metric (the queues
	// still serve them, so steady state is measured, not ramp-up). 0
	// means unset (default 5% of DurationMs); -1 requests explicitly
	// zero warmup.
	WarmupMs float64
	// SLAMs is the per-query latency target Goodput and
	// SLAViolationMinutes are measured against.
	SLAMs float64
	// Admission is the router's load-shedding rule.
	Admission Admission
	// Autoscale, when set, runs the control loop over the active set.
	Autoscale *Autoscaler
	// StartNodes is the initial active-set size (0 means all plan
	// nodes). Inactive nodes hold their shards but serve nothing until
	// the autoscaler brings them in; their work routes down the standby
	// chain, so a deliberately zero-capacity owner is expressible.
	StartNodes int
	// StreamStats sends each scored latency to a fixed-memory
	// stats.QuantileSketch instead of a per-query sample slot
	// (streamstats.go): O(1) memory per query, counters exact,
	// percentiles within the sketch's error bound (~0.8%). Off by
	// default — the exact nearest-rank percentiles are the golden
	// baseline.
	StreamStats bool
}

// validateErrs reports every violation without mutating o, accepting the
// zero-means-default fields in either pre- or post-default form.
func (o *OpenLoop) validateErrs(nodes int) []error {
	var errs []error
	ar := o.Arrivals
	if ar.Seed != 0 {
		errs = append(errs, fmt.Errorf("cluster: traffic seed is derived from the cluster seed; leave it zero"))
		ar.Seed = 0
	}
	if err := ar.Validate(); err != nil {
		errs = append(errs, err)
	}
	if o.Population != nil {
		pop := *o.Population
		if pop.Seed != 0 {
			errs = append(errs, fmt.Errorf("cluster: population seed is derived from the cluster seed; leave it zero"))
			pop.Seed = 0
		}
		if err := pop.Validate(); err != nil {
			errs = append(errs, err)
		}
	}
	if o.DurationMs <= 0 {
		errs = append(errs, fmt.Errorf("cluster: open-loop runs need a positive duration (got %g ms)", o.DurationMs))
	}
	if o.WarmupMs < 0 && o.WarmupMs != -1 {
		errs = append(errs, fmt.Errorf("cluster: warmup %g ms (use -1 for explicit zero)", o.WarmupMs))
	}
	if o.DurationMs > 0 {
		w := o.WarmupMs
		switch w {
		case 0:
			w = o.DurationMs / 20
		case -1:
			w = 0
		}
		if w >= o.DurationMs {
			errs = append(errs, fmt.Errorf("cluster: warmup %g ms >= duration %g ms", w, o.DurationMs))
		}
	}
	if o.SLAMs <= 0 {
		errs = append(errs, fmt.Errorf("cluster: open-loop runs need a positive SLA target (got %g ms)", o.SLAMs))
	}
	if o.StartNodes < 0 || o.StartNodes > nodes {
		errs = append(errs, fmt.Errorf("cluster: %d start nodes outside [0,%d]", o.StartNodes, nodes))
	}
	errs = append(errs, o.Admission.validateErrs()...)
	if o.Autoscale != nil {
		errs = append(errs, o.Autoscale.validateErrs(nodes)...)
		minN := o.Autoscale.MinNodes
		if minN == 0 {
			minN = 1
		}
		start := o.StartNodes
		if start == 0 {
			start = nodes
		}
		if start < minN {
			errs = append(errs, fmt.Errorf("cluster: %d start nodes below autoscaler floor %d", start, minN))
		}
	}
	return errs
}

// applyDefaults resolves the zero-means-default fields in place and
// returns the first validation failure (mirroring Config.applyDefaults;
// Config.Validate is the collect-all front door).
func (o *OpenLoop) applyDefaults(nodes int) error {
	if errs := o.validateErrs(nodes); len(errs) > 0 {
		return errs[0]
	}
	switch o.WarmupMs {
	case 0:
		o.WarmupMs = o.DurationMs / 20
	case -1:
		o.WarmupMs = 0
	}
	if o.StartNodes == 0 {
		o.StartNodes = nodes
	}
	if o.Autoscale != nil {
		if o.Autoscale.MinNodes == 0 {
			o.Autoscale.MinNodes = 1
		}
		if o.Autoscale.MaxNodes == 0 {
			o.Autoscale.MaxNodes = nodes
		}
	}
	return nil
}

// wheelBuckets is the copy wheel's ring size. Its bucket width is the
// run's mean inter-arrival gap (wheelWidthMs), so a bucket holds about
// one arrival's copies at any load and the ring spans ~4096 arrivals;
// copies launched further out (retries behind long timeouts) wait in the
// overflow area. Pop order does not depend on the geometry.
const wheelBuckets = 4096

// wheelWidthMs is the copy wheel's bucket width for a default-applied
// config: the mean inter-arrival gap — MeanArrivalMs for the closed
// loop, the base rate's reciprocal for the open loop.
func wheelWidthMs(cfg *Config) float64 {
	if cfg.Open != nil {
		return 1 / cfg.Open.Arrivals.RatePerMs
	}
	return cfg.MeanArrivalMs
}

// arrivalSource yields a run's arrival instants in order: a
// *traffic.Stream for the open loop, poissonArrivals for the closed loop.
type arrivalSource interface{ Next() float64 }

// poissonArrivals is the closed loop's arrival source: exponential gaps
// of mean meanMs.
type poissonArrivals struct {
	rng    stats.RNG
	meanMs float64
	now    float64
}

func (p *poissonArrivals) Next() float64 {
	p.now += p.rng.ExpFloat64() * p.meanMs
	return p.now
}

// loopRun is one Simulate run's mutable state: the event loop (loop) and
// its handlers — tick, arrival, summary. o is nil for a closed-loop run.
type loopRun struct {
	o    *OpenLoop
	plan *Plan
	st   *simState

	src      arrivalSource
	visitors *traffic.Visitors
	pop      traffic.Population
	zipf     *stats.Zipf

	// Arrivals stop at endMs (the open loop's horizon, +Inf closed) or
	// after limit arrivals (the closed loop's Queries, 0 open). slaMs is
	// the open loop's SLA target; +Inf closed, where no query misses.
	endMs float64
	limit int
	slaMs float64

	// The active set. route walks a shard's standby chain to the first
	// active node — the same chain retries use, so any node can serve
	// any shard's rows (standby replicas, as in the fault model).
	active      []bool
	activeCount int

	// Time-weighted active-set accounting; the set only changes at ticks.
	nodeMsSum  float64
	lastChange float64

	as           *Autoscaler
	nextTick     float64
	pendingNode  int
	pendingReady float64
	scaleUps     int
	scaleDowns   int

	j *queryJoin // the incremental query join (streamstats.go)

	eff   []int // arrival-scratch: cold work per effective node
	draws int

	hotLookups, totalLookups int

	nextArr float64
	q       int

	// Pre-draw ring (predraw.go): arrivals whose lookup draws were
	// computed ahead, over the backend's workers, as pure functions of
	// (Seed, q, user).
	ring     []ringArrival
	ringCold []int
	ringHead int

	// The run's recycled working set (arena.go); release returns it.
	arena *runArena
}

// newLoopRun builds the run state. cfg has been default-applied.
func newLoopRun(cfg Config) (*loopRun, error) {
	o := cfg.Open
	plan := cfg.Plan
	model := plan.Model

	r := &loopRun{
		o:           o,
		plan:        plan,
		endMs:       math.Inf(1),
		limit:       cfg.Queries,
		slaMs:       math.Inf(1),
		activeCount: plan.Nodes,
		nextTick:    math.Inf(1),
		pendingNode: -1,
		draws:       cfg.SamplesPerQuery * model.LookupsPerSample,
	}
	var warmupMs, minuteMs float64
	if o == nil {
		r.src = &poissonArrivals{
			rng:    stats.SeededRNG(stats.SplitSeed(cfg.Seed^0xA221, 0)),
			meanMs: cfg.MeanArrivalMs,
		}
	} else {
		ar := o.Arrivals
		ar.Seed = stats.SplitSeed(cfg.Seed^saltOpenArrivals, 0)
		stream, err := traffic.NewStream(ar)
		if err != nil {
			return nil, err
		}
		r.src = stream
		if o.Population != nil {
			r.pop = *o.Population
			r.pop.Seed = stats.SplitSeed(cfg.Seed^saltOpenUsers, 0)
			r.visitors, err = traffic.NewVisitors(r.pop)
			if err != nil {
				return nil, err
			}
		}
		r.endMs, r.slaMs = o.DurationMs, o.SLAMs
		r.activeCount, warmupMs = o.StartNodes, o.WarmupMs
		if r.as = o.Autoscale; r.as != nil {
			r.nextTick = r.as.IntervalMs
		}
		// SLA-violation minutes bucketize on the configured day when the
		// stream defines one, else on the run horizon.
		minuteMs = o.DurationMs / 1440
		if ar.DayMs > 0 {
			minuteMs = ar.DayMs / 1440
		}
	}

	a := acquireArena()
	st := &simState{
		cfg:      cfg,
		plan:     plan,
		queues:   a.queueSet(plan.Nodes, cfg.ServersPerNode),
		subs:     a.subs[:0],
		wheel:    a.copyWheel(wheelWidthMs(&cfg)),
		warmupMs: warmupMs,
	}
	if cfg.Faults.Active() {
		st.faults = newFaultState(cfg.Faults, cfg.Seed, plan.Nodes)
	}
	if cfg.Chaos.Active() {
		st.chaos = a.chaosFor(&cfg.Chaos, plan.Nodes)
	}
	if cfg.Mitigation.adaptive() {
		st.adapt = a.adaptFor(&cfg.Mitigation, plan.Nodes)
	}
	r.st = st
	r.arena = a
	r.active = a.boolSet(plan.Nodes)
	for n := 0; n < r.activeCount; n++ {
		r.active[n] = true
	}
	st.freeSubs = a.freeSubs[:0]
	r.j = a.joinFor(o != nil && o.StreamStats, cfg.Timing.DenseMs, r.slaMs, minuteMs)
	r.eff = arenaSlice(&a.eff, plan.Nodes)
	r.ring, r.ringCold = a.ring, a.ringCold

	// The Zipf sampler's rejection-inversion constants depend only on
	// (rows, exponent), and construction consumes no generator draws, so
	// one sampler serves every (query, table) stream.
	switch cfg.Hotness {
	case trace.OneItem, trace.RandomAccess:
	default:
		r.zipf = stats.NewSharedZipf(model.RowsPerTable, cfg.Hotness.ReferenceExponent())
	}

	if o == nil {
		return r, nil
	}
	if st.chaos != nil {
		// A schedule none of whose windows opens before the horizon never
		// fires: no recovery to measure, as without a schedule.
		if clearMs, fired := st.chaos.clearBy(o.DurationMs); fired {
			r.j.ttrArr, r.j.ttrGood = a.ttrBuckets(int(o.DurationMs/minuteMs) + 1)
			r.j.clearMs = math.Min(clearMs, o.DurationMs)
			r.j.pfThreshMs = math.Max(r.j.clearMs, o.WarmupMs)
		}
	}
	return r, nil
}

// release recaptures whatever grew during the run into the arena and
// returns it to the free list.
func (r *loopRun) release() {
	a := r.arena
	a.subs, a.freeSubs = r.st.subs, r.st.freeSubs
	a.ring, a.ringCold = r.ring, r.ringCold
	a.release()
}

func (r *loopRun) route(n int) int {
	for k := 0; k < r.plan.Nodes; k++ {
		if t := (n + k) % r.plan.Nodes; r.active[t] {
			return t
		}
	}
	return n // unreachable: the active set never empties
}

func (r *loopRun) backlog(n int, now float64) float64 {
	if b := r.st.queues[n].EarliestFree() - now; b > 0 {
		return b
	}
	return 0
}

func (r *loopRun) noteActive(now float64) {
	r.nodeMsSum += float64(r.activeCount) * (now - r.lastChange)
	r.lastChange = now
}

// tick runs one autoscaler control tick. Activation first, so a node
// ready exactly at this tick serves the decisions below.
func (r *loopRun) tick(now float64) {
	as := r.as
	if r.pendingNode >= 0 && now >= r.pendingReady {
		r.noteActive(now)
		r.active[r.pendingNode] = true
		r.activeCount++
		r.pendingNode = -1
	}
	var sum float64
	for n := range r.active {
		if r.active[n] {
			sum += r.backlog(n, now)
		}
	}
	mean := sum / float64(r.activeCount)
	if mean > as.UpBacklogMs && r.pendingNode < 0 && r.activeCount < as.MaxNodes {
		// Provision the lowest-index inactive node; its queue is
		// held shut with the outage machinery until it is warm.
		for n := range r.active {
			if !r.active[n] {
				r.pendingNode = n
				break
			}
		}
		r.pendingReady = now + as.ProvisionMs
		r.st.queues[r.pendingNode].Unavailable(r.pendingReady)
		r.scaleUps++
	} else if mean < as.DownBacklogMs && r.activeCount > as.MinNodes {
		// Drain the highest-index active node: pure route-away —
		// in-flight work completes, new work skips it.
		for n := r.plan.Nodes - 1; n >= 0; n-- {
			if r.active[n] {
				r.noteActive(now)
				r.active[n] = false
				r.activeCount--
				r.scaleDowns++
				break
			}
		}
	}
	r.nextTick += as.IntervalMs
}

// drawArrival draws arrival q's lookups: cold (len Nodes, overwritten)
// receives per-OWNER cold counts — routing through the active set
// happens at processing time — and hot/warm are the replicated and
// profile-warm counts. A pure function of (Seed, q, user, visit), so
// the pre-draw ring computes it ahead of the event loop (predraw.go).
func (r *loopRun) drawArrival(q int, user uint64, visit int, cold []int) (hot, warm int) {
	plan := r.plan
	model := plan.Model
	seed, h := r.st.cfg.Seed^0x100C, r.st.cfg.Hotness
	zipf, vis := r.zipf, r.visitors
	var prof traffic.UserProfile
	if vis != nil {
		prof = r.pop.Profile(user)
	}
	for n := range cold {
		cold[n] = 0
	}
	for t := 0; t < model.Tables; t++ {
		rng := stats.SeededRNG(stats.SplitSeed(seed, uint64(q*model.Tables+t)))
		for l := 0; l < r.draws; l++ {
			var rk int
			fromProfile := vis != nil && rng.Float64() < vis.Affinity()
			switch {
			case fromProfile:
				pr := prof.Stream(t, rng.Intn(vis.ProfileSize()))
				rk = sampleRank(h, model.RowsPerTable, zipf, &pr)
			case h == trace.RandomAccess:
				rk = rng.Intn(model.RowsPerTable)
			case h != trace.OneItem:
				rk = zipf.SampleWith(&rng)
			}
			switch {
			case plan.Replicated(rk):
				hot++
			case fromProfile && visit > 1:
				// The user's earlier visit already pulled this
				// profile row through the home node — warm there.
				warm++
			default:
				cold[plan.Owner(t, plan.rowOfRank(t, rk))]++
			}
		}
	}
	return hot, warm
}

// sampleRank draws one profile lookup's hotness rank from its stateless
// profile stream, as drawArrival draws fresh lookups from the
// per-(query,table) stream, so profile slots keep the marginal hotness
// distribution while pinning each slot to one row.
func sampleRank(h trace.Hotness, rows int, zipf *stats.Zipf, rng *stats.RNG) int {
	switch h {
	case trace.OneItem:
		return 0
	case trace.RandomAccess:
		return rng.Intn(rows)
	default:
		return zipf.SampleWith(rng)
	}
}

// processArrival handles one arrival whose lookups are already drawn:
// route the cold work through the active set, decide admission off the
// live queue backlogs, and schedule the sub-request copies onto the
// wheel. Advances the arrival counter q.
func (r *loopRun) processArrival(now float64, user uint64, visit int, hot, warm int, cold []int) {
	o := r.o
	plan := r.plan
	model := plan.Model
	cfg := &r.st.cfg
	st := r.st
	home := r.route(int(user % uint64(plan.Nodes)))
	// Route each owner through the active set and merge the cold
	// work per effective node; hot and warm lookups serve at home.
	for n := range r.eff {
		r.eff[n] = 0
	}
	for n, c := range cold {
		if c > 0 {
			r.eff[r.route(n)] += c
		}
	}
	admitted := true
	if o != nil && o.Admission.Policy == ShedOverBudget {
		worst := 0.0
		for n, c := range r.eff {
			if c == 0 && !(n == home && hot+warm > 0) {
				continue
			}
			if b := r.backlog(n, now); b > worst {
				worst = b
			}
		}
		admitted = !o.Admission.shed(worst)
	}
	scored := st.scored(r.q, now)
	joinSlot := r.j.arrival(now, scored, admitted, visit > 1)
	if admitted {
		for n, c := range r.eff {
			served := c
			svcUs := cfg.Timing.SubRequestUs + cfg.Timing.ColdLookupUs*float64(c)
			if n == home && hot+warm > 0 {
				served += hot + warm
				svcUs += cfg.Timing.HotLookupUs * float64(hot+warm)
			}
			if served == 0 {
				continue
			}
			reqBytes := int64(4*served) + wireHeaderBytes
			// The response carries partial pooled sums: one EmbDim vector
			// per (sample, table) slice served, fp32 on the wire.
			pooled := (served + model.LookupsPerSample - 1) / model.LookupsPerSample
			respBytes := int64(pooled)*int64(model.EmbDim)*4 + wireHeaderBytes
			idx := st.schedule(r.q, home, n, served, svcUs/1e3, reqBytes, respBytes, now)
			st.subs[idx].join = joinSlot
			r.j.subAttached(joinSlot)
		}
		if scored {
			r.hotLookups += hot + warm
			r.totalLookups += hot + warm
			for _, c := range cold {
				r.totalLookups += c
			}
		}
	}
	r.j.finalizeIfEmpty(joinSlot)
	r.q++
}

// loop is the event loop over the three deterministic sources. Ticks
// precede arrivals precede copies at equal instants (strict
// inequalities below encode the tie-break). Arrivals come off the
// pre-draw ring, which refills over parts workers whenever it drains.
// The loop ends once the arrivals are exhausted and the wheel has
// drained.
//
// Serving a copy only when it arrives strictly before the next arrival
// reproduces the global (arrive, seq, attempt) order over all copies of
// the run: every copy arrival q schedules arrives at or after now_q, so
// no later arrival can schedule a copy that sorts before one already
// served.
func (r *loopRun) loop(parts int) {
	nodes := r.plan.Nodes
	w := r.st.wheel
	r.ringFill(parts)
	for {
		now := math.Inf(1)
		kind := 0 // 1 tick, 2 arrival, 3 copy
		if r.as != nil && r.nextTick <= r.endMs {
			now, kind = r.nextTick, 1
		}
		if r.nextArr < r.endMs && r.nextArr < now {
			now, kind = r.nextArr, 2
		}
		if w.Len() > 0 {
			if min := w.Min(); min.arrive < now {
				now, kind = min.arrive, 3
			}
		}
		switch kind {
		case 0:
			return
		case 1:
			r.tick(now)
		case 2:
			a := &r.ring[r.ringHead]
			coldq := r.ringCold[r.ringHead*nodes : (r.ringHead+1)*nodes]
			r.processArrival(now, a.user, a.visit, a.hot, a.warm, coldq)
			r.ringHead++
			if r.ringHead == len(r.ring) {
				r.ringFill(parts)
			} else {
				r.nextArr = r.ring[r.ringHead].t
			}
		case 3:
			cp := w.Pop()
			r.st.serveCopy(&cp, r.route(cp.node))
			r.j.copyDone(r.st, cp.sub)
		}
	}
}

// summary folds the run into a Result: the join's accumulators plus
// the fleet-level accounting. A closed-loop run measures its horizon up
// to the last finish and leaves the open-only fields zero.
func (r *loopRun) summary() Result {
	o := r.o
	plan := r.plan
	st := r.st
	cfg := &st.cfg
	j := r.j
	if check.Enabled {
		j.checkDrained(st)
	}
	if joinHighWater != nil {
		joinHighWater(j.maxLiveSubs, j.maxLiveJoins)
	}
	pct, mean, nLat, completenessSum := j.latencySummary()

	res := Result{
		P50:                 pct[0],
		P95:                 pct[1],
		P99:                 pct[2],
		Mean:                mean,
		MaxQueueWaitMs:      st.maxWait,
		ReplicaBytesPerNode: plan.ReplicaBytesPerNode(),
		MaxShardBytes:       plan.MaxShardBytes(),
		ScaleUps:            r.scaleUps,
		ScaleDowns:          r.scaleDowns,
	}
	// An all-shed storm leaves no admitted queries: the ratio metrics are
	// left zero instead of dividing by zero (Percentile/Mean already
	// return 0 on empty slices).
	if n := nLat; n > 0 {
		res.MeanFanout = float64(j.fanoutSum) / float64(n)
		res.Availability = float64(j.fullJoins) / float64(n)
		res.Completeness = completenessSum / float64(n)
		res.RetriesPerQuery = float64(j.retryCount) / float64(n)
		res.RetryAmplification = float64(j.fanoutSum+j.hedgeCount+j.retryCount) / float64(n)
	}
	if st.adapt != nil {
		res.BreakerOpenMinutes = st.adapt.finalize() / 60000
	}
	// The run's horizon: the open loop's configured duration, the closed
	// loop's last finish.
	horizon := j.simEnd
	if o != nil {
		horizon = o.DurationMs
	}
	res.DomainAvailability = 1
	if st.chaos != nil && horizon > 0 {
		res.DomainAvailability = 1 - st.chaos.outageMs(horizon)/(float64(st.chaos.domains)*horizon)
	}
	if j.fanoutSum > 0 {
		res.HedgeRate = float64(j.hedgeCount) / float64(j.fanoutSum)
	}
	if r.totalLookups > 0 {
		res.LocalFraction = float64(r.hotLookups) / float64(r.totalLookups)
	}
	var busySum, busyMax float64
	for _, qu := range st.queues {
		b := qu.BusyMs()
		busySum += b
		if b > busyMax {
			busyMax = b
		}
	}
	if busySum > 0 {
		res.Imbalance = busyMax / (busySum / float64(plan.Nodes))
	}
	if o == nil {
		if j.simEnd > 0 {
			res.Utilization = busySum / (j.simEnd * float64(plan.Nodes*cfg.ServersPerNode))
		}
	} else {
		r.openSummary(&res, busySum)
	}
	if check.Enabled {
		finite := check.Finite
		check.Assert(finite(res.P50) && finite(res.P99) && finite(res.Mean) && finite(res.Utilization),
			"cluster: non-finite latency summary (p50 %g, p99 %g, mean %g, util %g)",
			res.P50, res.P99, res.Mean, res.Utilization)
		check.Assert(finite(res.RetryAmplification) && finite(res.DomainAvailability),
			"cluster: impossible recovery accounting (amplification %g, domain availability %g)",
			res.RetryAmplification, res.DomainAvailability)
	}
	return res
}

// openSummary fills the open-loop-only fields: offered load, goodput,
// shedding, SLA violation minutes, the active set, and recovery from the
// chaos schedule. Capacity for Utilization is the time-integrated active
// set (node·ms), not nodes×horizon — a drained node contributes none.
func (r *loopRun) openSummary(res *Result, busySum float64) {
	o, j := r.o, r.j
	r.noteActive(o.DurationMs)
	window := o.DurationMs - o.WarmupMs
	res.OfferedQPS = float64(j.postArr) / (window / 1e3)
	res.Goodput = float64(j.goodCount) / (window / 1e3)
	res.SLAViolationMinutes = float64(len(j.violated))
	res.MeanActiveNodes = r.nodeMsSum / o.DurationMs
	if j.postArr > 0 {
		res.ShedRate = float64(j.postShed) / float64(j.postArr)
		res.RevisitRate = float64(j.postRevisit) / float64(j.postArr)
	}
	if r.nodeMsSum > 0 {
		res.Utilization = busySum / (r.nodeMsSum * float64(r.st.cfg.ServersPerNode))
	}
	if j.ttrArr != nil {
		// Time to recover: the earliest minute bucket past the clear
		// instant from which every later non-empty bucket keeps an in-SLA
		// fraction of at least 1-recoverEps. Empty buckets are neutral; -1
		// means the fleet never re-entered a sustained good regime before
		// the horizon (the metastable signature).
		recB := -1
		for b := len(j.ttrArr) - 1; b >= int(j.clearMs/j.minuteMs)+1; b-- {
			if j.ttrArr[b] == 0 {
				continue
			}
			if float64(j.ttrGood[b]) >= (1-recoverEps)*float64(j.ttrArr[b]) {
				recB = b
			} else {
				break
			}
		}
		res.TimeToRecoverMs = -1
		if recB >= 0 {
			res.TimeToRecoverMs = math.Max(0, float64(recB)*j.minuteMs-j.clearMs)
		}
		if pfWindow := o.DurationMs - j.pfThreshMs; pfWindow > 0 {
			res.PostFaultOfferedQPS = float64(j.pfArr) / (pfWindow / 1e3)
			res.PostFaultGoodput = float64(j.pfGood) / (pfWindow / 1e3)
		}
	}
	if check.Enabled {
		finite := check.Finite
		check.Assert(finite(res.Goodput) && finite(res.ShedRate),
			"cluster: non-finite open-loop summary (goodput %g, shed %g)", res.Goodput, res.ShedRate)
		check.Assert(res.SLAViolationMinutes >= 0 && res.MeanActiveNodes > 0 && res.TimeToRecoverMs >= -1,
			"cluster: impossible open-loop accounting (violation minutes %g, active nodes %g, recover %g ms)",
			res.SLAViolationMinutes, res.MeanActiveNodes, res.TimeToRecoverMs)
	}
}
