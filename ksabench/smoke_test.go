package main

import (
	"encoding/json"
	"os"
	"sort"
	"testing"
)

// TestSmoke runs every workload for a few ops, untraced and traced (the
// corpus reproducer untraced only), with the output checks on, and
// requires the emitted metrics to be exactly the ones BENCHMARK.json
// declares, with the same units.
func TestSmoke(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type def struct{ Name, Unit string }
	var bench struct {
		Workloads []def `json:"workloads"`
		EndToEnd  []def `json:"end_to_end"`
		PerLayer  []def `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bench); err != nil {
		t.Fatal(err)
	}
	var declared []string
	for _, w := range bench.Workloads {
		declared = append(declared, w.Name)
	}
	var implemented, reproducers []string
	for name, def := range workloads {
		if def.reproducer {
			reproducers = append(reproducers, name)
		} else {
			implemented = append(implemented, name)
		}
	}
	sort.Strings(declared)
	sort.Strings(implemented)
	if !equal(declared, implemented) {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark implements %v", declared, implemented)
	}

	for _, name := range append(declared, reproducers...) {
		for _, traced := range []bool{false, true} {
			if traced && workloads[name].reproducer {
				if _, _, err := run(runConfig{workload: name, seed: 1, seconds: 60, trace: true, maxOps: 4}); err == nil {
					t.Errorf("%s: a traced run of a reproducer succeeded", name)
				}
				continue
			}
			res, ctx, err := run(runConfig{workload: name, seed: 1, seconds: 60, trace: traced, maxOps: 4})
			if err != nil {
				t.Fatalf("%s trace=%t: %v", name, traced, err)
			}
			if !res.Correct || res.Attempted < 1 {
				t.Errorf("%s trace=%t: correct=%t attempted=%d failures=%v", name, traced, res.Correct, res.Attempted, ctx.Failures)
			}
			want := bench.EndToEnd
			if traced {
				want = bench.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%t: %d metrics emitted, BENCHMARK.json declares %d", name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%t: metric %s: emitted %+v (present %t), declared unit %s", name, traced, m.Name, got, ok, m.Unit)
				}
			}
		}
	}
}

func equal(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
