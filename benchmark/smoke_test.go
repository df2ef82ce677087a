package main

import (
	"testing"
)

// TestSmoke runs every workload, untraced and traced, at a 200 ms window
// and a twentieth of the population. It asserts what must hold at any size:
// the oracle passes, the output carries exactly the names BENCHMARK.json
// declares for that pass with their units, and every end-to-end value is
// positive. It asserts no timing.
func TestSmoke(t *testing.T) {
	spec, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the program has %d", len(spec.Workloads), len(workloads))
	}
	for _, m := range append(append([]metricSpec(nil), spec.EndToEnd...), spec.PerLayer...) {
		if !nameRE.MatchString(m.Name) || m.Unit == "" || (m.Better != "higher" && m.Better != "lower") {
			t.Errorf("BENCHMARK.json: malformed metric %+v", m)
		}
	}
	for _, w := range spec.Workloads {
		for _, traced := range []bool{false, true} {
			cfg := config{workload: w.Name, seed: 7, seconds: 0.2, traced: traced, scale: 20, setupReps: 1, traceDir: t.TempDir()}
			o, notes, err := runOne(spec, cfg)
			if err != nil {
				t.Fatalf("%s traced=%t: %v (notes: %v)", w.Name, traced, err, notes)
			}
			if !o.Correct || o.Failed != 0 || o.Attempted < 1 {
				t.Errorf("%s traced=%t: correct=%t attempted=%d failed=%d: %v", w.Name, traced, o.Correct, o.Attempted, o.Failed, notes)
			}
			want := spec.EndToEnd
			if traced {
				want = spec.PerLayer
			}
			if len(o.Metrics) != len(want) {
				t.Errorf("%s traced=%t: %d metrics in the output, %d in BENCHMARK.json", w.Name, traced, len(o.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := o.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s traced=%t: %s missing from the output", w.Name, traced, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s traced=%t: %s has unit %q, BENCHMARK.json says %q", w.Name, traced, m.Name, got.Unit, m.Unit)
				case !traced && !(got.Value > 0):
					t.Errorf("%s: end-to-end %s = %v, must be positive", w.Name, m.Name, got.Value)
				}
			}
		}
	}
}
