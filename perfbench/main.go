// Command perfbench is the repository benchmark: four workloads that
// drive the engine, cluster and hetsched tiers through their public Go
// APIs, check every simulated output against committed digests, and
// print end-to-end metrics (untraced) or per-layer metrics (traced) as
// one JSON line. See README.md.
//
//	go run . --workload engine-grid --seed 1 --seconds 10 --trace 0
package main

import (
	"bufio"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// info is the line printed before the result: the host manifest and
// the run's raw samples and informational values.
type info struct {
	Host     host   `json:"host"`
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Traced   bool   `json:"traced"`
	Pinned   bool   `json:"pinned"`
	// SetupReps counts set-up repetitions; Samples holds at most the
	// first ten set-up times.
	SetupReps int                  `json:"setup_reps,omitempty"`
	Samples   map[string][]float64 `json:"samples,omitempty"`
	Model     map[string]any       `json:"model,omitempty"`
	Spans     string               `json:"spans,omitempty"`
	Note      string               `json:"note,omitempty"`
}

// host names the machine a point was measured on.
type host struct {
	Nproc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
}

func hostManifest(commit string) host {
	h := host{Nproc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(), Commit: commit, CPU: "unknown"}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}

// digest fingerprints a simulator output. %+v prints every exported
// field, floats in shortest round-trip form and maps in key order, so
// equal digests mean byte-identical outputs.
func digest(v any) string {
	sum := sha256.Sum256([]byte(fmt.Sprintf("%+v", v)))
	return hex.EncodeToString(sum[:8])
}

// expectedFile holds the committed output digests: workload → seed →
// one digest per simulation call, in pass order.
//
//go:embed expected.json
var expectedFile []byte

type digestTable map[string]map[string][]string

func loadExpected() (digestTable, error) {
	var t digestTable
	if err := json.Unmarshal(expectedFile, &t); err != nil {
		return nil, fmt.Errorf("expected.json: %w", err)
	}
	return t, nil
}

func (t digestTable) lookup(workload string, seed uint64) []string {
	return t[workload][strconv.FormatUint(seed, 10)]
}

// peakRSSMB reads the process's peak resident set (VmHWM).
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

func main() {
	var (
		name     = flag.String("workload", "", "workload: engine-grid | cluster-day | cluster-storm | hetsched-sweep")
		seed     = flag.Uint64("seed", 1, "workload seed; inputs are a pure function of it")
		seconds  = flag.Float64("seconds", 10, "how long the timed phase runs")
		traced   = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
		commit   = flag.String("commit", "unknown", "commit the binary was built from (host manifest)")
		spansDir = flag.String("spans-dir", ".bench_out", "directory traced runs write their spans to")
		regen    = flag.String("regen", "", "regenerate expected.json for this seed range (e.g. 0-31) and exit")
	)
	flag.Parse()
	if *regen != "" {
		if err := regenerate(*regen, "expected.json"); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	w, ok := findWorkload(*name)
	if !ok || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %g, trace %d)\n", *name, *seconds, *traced)
		os.Exit(2)
	}
	table, err := loadExpected()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	o := runOpts{
		size: fullSize, seed: *seed, seconds: *seconds, traced: *traced == 1,
		expected: table.lookup(w.name, *seed), spansDir: *spansDir,
	}
	res, inf, err := runWorkload(w, o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	inf.Host = hostManifest(*commit)
	line, err := json.Marshal(inf)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	line, err = json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// runOpts is one invocation's settings.
type runOpts struct {
	size     size
	seed     uint64
	seconds  float64
	traced   bool
	expected []string // committed digests for this seed; nil if unpinned
	spansDir string
}

// An untraced run sets up at least setupReps times, and keeps repeating
// a cheap set-up (engine-grid's is sub-millisecond) until setupMinS of
// set-up time is spent; setup_s is the median. Each repetition of a
// calibrated set-up starts from emptied engine pools, so each pays what
// a fresh process pays.
const (
	setupReps    = 3
	setupMinS    = 0.25
	setupMaxReps = 1000
)

// checker compares call outcomes against the committed digests, or,
// for a seed without committed digests, against the run's first pass.
type checker struct {
	want      []string
	attempted int
	failed    int
}

func (c *checker) check(outs []outcome) {
	if c.want == nil {
		c.want = make([]string, len(outs))
		for i, o := range outs {
			c.want[i] = o.digest
		}
	}
	for i, o := range outs {
		c.attempted++
		if o.err != nil || i >= len(c.want) || o.digest != c.want[i] {
			c.failed++
		}
	}
}

func runWorkload(w workload, o runOpts) (result, info, error) {
	inf := info{Workload: w.name, Seed: o.seed, Traced: o.traced, Pinned: o.expected != nil,
		Samples: map[string][]float64{},
		Note:    "the cluster and hetsched tiers have no reference results in the repo; their outputs are checked for determinism only, not validated"}
	ck := &checker{want: o.expected}
	if o.traced {
		sp := newSpans(w.name, o.seed)
		metrics, err := tracedRun(w, o, sp, ck, &inf)
		if err != nil {
			return result{}, inf, err
		}
		path, err := sp.write(o.spansDir)
		if err != nil {
			return result{}, inf, fmt.Errorf("writing spans: %w", err)
		}
		inf.Spans = path
		return finish(ck, metrics), inf, nil
	}

	var in *instance
	var setups []float64
	for spent := 0.0; len(setups) < setupReps || (spent < setupMinS && len(setups) < setupMaxReps); {
		if w.calibrated {
			emptyPools()
		}
		t0 := time.Now()
		var err error
		if in, err = w.setup(o.size, o.seed, nil); err != nil {
			return result{}, inf, fmt.Errorf("%s set-up: %w", w.name, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		spent += setups[len(setups)-1]
	}
	runs, allocs := timedPasses(in, o.seconds, ck)
	if in.crossCheck != nil {
		ck.check(in.crossCheck())
	}
	if cfg := in.clusterConfig(); cfg != nil {
		in.phases = copiesOf(cfg, in.res)
	}
	inf.SetupReps = len(setups)
	inf.Samples["setup_s"], inf.Samples["run_s"], inf.Samples["allocs"] = setups[:min(len(setups), 10)], runs, allocs
	if in.cells != nil {
		inf.Model = gridAccuracy(in)
	}
	runS := median(runs)
	m := map[string]metric{
		"run_s":         {runS, "s"},
		"setup_s":       {median(setups), "s"},
		"lookups_per_s": {in.lookups / runS, "1/s"},
		"queries_per_s": {in.queries / runS, "1/s"},
		"phases_per_s":  {in.phases / runS, "1/s"},
		"peak_rss_mb":   {peakRSSMB(), "MB"},
		"allocs":        {median(allocs), "count"},
	}
	return finish(ck, m), inf, nil
}

func finish(ck *checker, m map[string]metric) result {
	return result{Correct: ck.failed == 0 && ck.attempted > 0, Attempted: ck.attempted, Failed: ck.failed, Metrics: m}
}

// emptyPools runs two collections, which empties every sync.Pool (the
// engine recycles cpusim.Systems through one), so the next set-up pays
// the construction a fresh process pays.
func emptyPools() {
	runtime.GC()
	runtime.GC()
}

// timedPasses runs passes until seconds of pass time have elapsed (at
// least three passes), checking each pass's outputs, and returns every
// pass's wall time and heap-object allocation count. Each pass starts
// from a collected heap, so passes do not inherit each other's garbage.
func timedPasses(in *instance, seconds float64, ck *checker) (runs, allocs []float64) {
	var ms runtime.MemStats
	spent := 0.0
	for len(runs) < 3 || spent < seconds {
		runtime.GC()
		runtime.ReadMemStats(&ms)
		m0 := ms.Mallocs
		t0 := time.Now()
		outs := in.pass()
		runs = append(runs, time.Since(t0).Seconds())
		spent += runs[len(runs)-1]
		runtime.ReadMemStats(&ms)
		allocs = append(allocs, float64(ms.Mallocs-m0))
		ck.check(outs)
	}
	return runs, allocs
}

// regenerate recomputes the committed digests for every workload over a
// seed range. Every output is computed twice and both must agree; a
// cluster output's second computation runs at the other execution
// width (P=1 against P=nproc).
func regenerate(spec string, path string) error {
	lo, hi, ok := strings.Cut(spec, "-")
	if !ok {
		hi = lo
	}
	a, err1 := strconv.ParseUint(lo, 10, 64)
	b, err2 := strconv.ParseUint(hi, 10, 64)
	if err := errors.Join(err1, err2); err != nil || b < a {
		return fmt.Errorf("bad seed range %q", spec)
	}
	table := digestTable{}
	for _, w := range workloads {
		table[w.name] = map[string][]string{}
		for seed := a; seed <= b; seed++ {
			in, err := w.setup(fullSize, seed, nil)
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", w.name, seed, err)
			}
			first, repeat := in.pass(), in.pass
			if in.crossCheck != nil {
				repeat = in.crossCheck
			}
			again := repeat()
			var ds []string
			for i := range first {
				if first[i].err != nil || again[i].err != nil {
					return fmt.Errorf("%s seed %d call %d: %v", w.name, seed, i, errors.Join(first[i].err, again[i].err))
				}
				if first[i].digest != again[i].digest {
					return fmt.Errorf("%s seed %d call %d: outputs differ between repeats", w.name, seed, i)
				}
				ds = append(ds, first[i].digest)
			}
			table[w.name][strconv.FormatUint(seed, 10)] = ds
			fmt.Fprintf(os.Stderr, "regen %s seed %d: %d digests\n", w.name, seed, len(ds))
		}
	}
	out, err := json.MarshalIndent(table, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}
