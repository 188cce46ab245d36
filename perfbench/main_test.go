package main

import (
	"encoding/json"
	"os"
	"strconv"
	"testing"
)

// benchmarkSpec is the part of ../BENCHMARK.json the tests check
// against.
type benchmarkSpec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s benchmarkSpec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

func tinyRun(t *testing.T, w workload, traced bool, expected []string) result {
	t.Helper()
	res, _, err := runWorkload(w, runOpts{size: tinySize, seed: 7, seconds: 0.01, traced: traced,
		expected: expected, spansDir: t.TempDir()})
	if err != nil {
		t.Fatalf("%s (traced %v): %v", w.name, traced, err)
	}
	return res
}

// checkMetrics requires exactly the named metrics, each with its unit.
func checkMetrics(t *testing.T, label string, got map[string]metric, want []struct{ Name, Unit string }) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d metrics, want %d", label, len(got), len(want))
	}
	for _, m := range want {
		g, ok := got[m.Name]
		if !ok {
			t.Errorf("%s: metric %s missing", label, m.Name)
		} else if g.Unit != m.Unit {
			t.Errorf("%s: metric %s unit %q, want %q", label, m.Name, g.Unit, m.Unit)
		}
	}
}

// TestSmokeAllWorkloads runs every workload at the tiny size, untraced
// and traced, and checks each emits every BENCHMARK.json metric with its
// unit and correct outputs.
func TestSmokeAllWorkloads(t *testing.T) {
	spec := loadSpec(t)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(spec.Workloads), len(workloads))
	}
	for _, sw := range spec.Workloads {
		w, ok := findWorkload(sw.Name)
		if !ok {
			t.Fatalf("BENCHMARK.json workload %q is not implemented", sw.Name)
		}
		for _, traced := range []bool{false, true} {
			res := tinyRun(t, w, traced, nil)
			label := w.name + map[bool]string{false: " untraced", true: " traced"}[traced]
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s: correct %v, %d of %d failed", label, res.Correct, res.Failed, res.Attempted)
			}
			if traced {
				checkMetrics(t, label, res.Metrics, spec.PerLayer)
				if r := res.Metrics["error_rate"].Value; r != 0 {
					t.Errorf("%s: error_rate %g, want 0", label, r)
				}
				continue
			}
			checkMetrics(t, label, res.Metrics, spec.EndToEnd)
			for name, m := range res.Metrics {
				if !(m.Value > 0) {
					t.Errorf("%s: end-to-end metric %s = %g, want > 0", label, name, m.Value)
				}
			}
		}
	}
}

// TestCorruptDigestFailsEveryCall feeds a wrong expected digest for
// every call: every call must count as failed and error_rate must be 1.
func TestCorruptDigestFailsEveryCall(t *testing.T) {
	w, _ := findWorkload("cluster-day")
	corrupt := []string{"0000000000000000"}
	res := tinyRun(t, w, true, corrupt)
	if res.Correct || res.Failed != res.Attempted {
		t.Errorf("corrupt digest: correct %v, %d of %d failed", res.Correct, res.Failed, res.Attempted)
	}
	if r := res.Metrics["error_rate"].Value; r != 1 {
		t.Errorf("corrupt digest: error_rate %g, want 1", r)
	}
	res = tinyRun(t, w, false, corrupt)
	if res.Correct || res.Failed != res.Attempted {
		t.Errorf("corrupt digest (untraced): correct %v, %d of %d failed", res.Correct, res.Failed, res.Attempted)
	}
}

// TestExpectedDigestsCoverEveryCall checks the committed table has, for
// every workload and pinned seed, one digest per simulation call.
func TestExpectedDigestsCoverEveryCall(t *testing.T) {
	table, err := loadExpected()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		seeds := table[w.name]
		if len(seeds) == 0 {
			t.Errorf("%s: no committed digests", w.name)
			continue
		}
		in, err := w.setup(tinySize, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		calls := len(in.pass())
		for seed, ds := range seeds {
			if _, err := strconv.ParseUint(seed, 10, 64); err != nil {
				t.Errorf("%s: bad seed key %q", w.name, seed)
			}
			if len(ds) != calls {
				t.Errorf("%s seed %s: %d digests for %d calls", w.name, seed, len(ds), calls)
			}
		}
	}
}
