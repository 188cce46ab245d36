package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call from the benchmark into a layer's public API.
// Times are seconds since the run started.
type span struct {
	ID       int                `json:"id"`
	Parent   int                `json:"parent"`
	Name     string             `json:"name"`
	Start    float64            `json:"start"`
	End      float64            `json:"end"`
	Workload string             `json:"workload"`
	Seed     uint64             `json:"seed"`
	Counts   map[string]float64 `json:"counts,omitempty"`
}

// spans keeps a traced run's spans in memory until the run ends. A nil
// *spans records nothing, so untraced runs pass nil.
type spans struct {
	t0       time.Time
	workload string
	seed     uint64
	list     []span
}

func newSpans(workload string, seed uint64) *spans {
	return &spans{t0: time.Now(), workload: workload, seed: seed}
}

// begin opens a span and returns its id (0 when not tracing).
func (s *spans) begin(name string, parent int) int {
	if s == nil {
		return 0
	}
	s.list = append(s.list, span{
		ID: len(s.list) + 1, Parent: parent, Name: name,
		Start: time.Since(s.t0).Seconds(), Workload: s.workload, Seed: s.seed,
	})
	return len(s.list)
}

func (s *spans) end(id int) {
	if s == nil || id == 0 {
		return
	}
	s.list[id-1].End = time.Since(s.t0).Seconds()
}

// count attaches a work count to a span.
func (s *spans) count(id int, key string, v float64) {
	if s == nil || id == 0 {
		return
	}
	sp := &s.list[id-1]
	if sp.Counts == nil {
		sp.Counts = map[string]float64{}
	}
	sp.Counts[key] += v
}

// duration returns one span's duration.
func (s *spans) duration(id int) float64 {
	return s.list[id-1].End - s.list[id-1].Start
}

// durations returns the durations of every span with the given name, in
// recording order.
func (s *spans) durations(name string) []float64 {
	var d []float64
	for _, sp := range s.list {
		if sp.Name == name {
			d = append(d, sp.End-sp.Start)
		}
	}
	return d
}

// total sums the durations of the named spans.
func (s *spans) total(name string) float64 {
	t := 0.0
	for _, d := range s.durations(name) {
		t += d
	}
	return t
}

// counted sums one count over the named spans.
func (s *spans) counted(name, key string) float64 {
	t := 0.0
	for _, sp := range s.list {
		if sp.Name == name {
			t += sp.Counts[key]
		}
	}
	return t
}

// write stores the spans as JSON under dir and returns the file path.
func (s *spans) write(dir string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("spans-%s-%d.json", s.workload, s.seed))
	b, err := json.MarshalIndent(s.list, "", " ")
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, append(b, '\n'), 0o644)
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}
