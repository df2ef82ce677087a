package main

import (
	"encoding/json"
	"fmt"
	"os"
	"regexp"
	"sort"
)

// benchSpec mirrors BENCHMARK.json, the contract every later performance
// claim in this repository is made against. The program reads its metric
// names, units and bounds from it, so the file and the output cannot drift.
type benchSpec struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadSpec `json:"workloads"`
	EndToEnd   []metricSpec   `json:"end_to_end"`
	PerLayer   []metricSpec   `json:"per_layer"`
}

type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func loadSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	seen := map[string]bool{}
	for _, m := range append(append([]metricSpec(nil), s.EndToEnd...), s.PerLayer...) {
		if !nameRE.MatchString(m.Name) || seen[m.Name] {
			return nil, fmt.Errorf("%s: bad or repeated metric name %q", path, m.Name)
		}
		seen[m.Name] = true
	}
	return &s, nil
}

func (s *benchSpec) workload(name string) bool {
	for _, w := range s.Workloads {
		if w.Name == name {
			return true
		}
	}
	return false
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is what one run of one workload reports; its JSON form is the
// last line the driver reads.
type outcome struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// shape turns a workload's raw values into exactly the metrics the spec
// names for this kind of run. A per-layer metric the workload does not
// exercise reads 0 (the layer did nothing); an end-to-end metric must be
// present and positive on every workload, and a value the spec does not
// name is a bug in the benchmark.
func (s *benchSpec) shape(raw map[string]float64, traced bool) (map[string]metric, error) {
	want, other := s.EndToEnd, s.PerLayer
	if traced {
		want, other = other, want
	}
	known := map[string]bool{}
	for _, m := range other {
		known[m.Name] = true
	}
	out := make(map[string]metric, len(want))
	for _, m := range want {
		known[m.Name] = true
		v, ok := raw[m.Name]
		if !traced && (!ok || !(v > 0)) {
			return nil, fmt.Errorf("end-to-end metric %s missing or not positive (%v)", m.Name, v)
		}
		out[m.Name] = metric{Value: v, Unit: m.Unit}
	}
	for name := range raw {
		if !known[name] {
			return nil, fmt.Errorf("metric %s is not in BENCHMARK.json", name)
		}
	}
	return out, nil
}

func sortedNames(m map[string]metric) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
