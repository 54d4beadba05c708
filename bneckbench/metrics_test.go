package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestBenchmarkJSONMatchesTables keeps BENCHMARK.json at the repository
// root in step with the workloads and metric tables the program reports.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var spec struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []entry `json:"end_to_end"`
		PerLayer []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	// BENCHMARK.json may leave workloads out (see README.md),
	// but it names none the program lacks.
	for _, w := range spec.Workloads {
		if _, ok := findWorkload(w.Name); !ok {
			t.Errorf("BENCHMARK.json names workload %q, which the program lacks", w.Name)
		}
	}
	check := func(kind string, got []entry, want []metric, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(got), len(want))
		}
		for i, m := range want {
			g := got[i]
			if g.Name != m.name || g.Unit != m.unit || g.Better != m.better() {
				t.Errorf("%s %d: BENCHMARK.json %s/%s/%s, program %s/%s/%s",
					kind, i, g.Name, g.Unit, g.Better, m.name, m.unit, m.better())
			}
			if bounded && (g.Bound == nil || *g.Bound != m.bound) {
				t.Errorf("%s %s: bound in BENCHMARK.json differs from %g", kind, m.name, m.bound)
			}
			if !bounded && g.Bound != nil {
				t.Errorf("%s %s: per-layer metrics carry no bound", kind, m.name)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd, true)
	check("per_layer", spec.PerLayer, perLayer, false)

	largest := 0.0
	for _, m := range endToEnd {
		largest = max(largest, m.bound)
	}
	if endToEnd[0].name != "setup_s" || endToEnd[0].bound != largest {
		t.Error("setup_s must carry the largest bound")
	}
}

func TestEveryMetricHasASource(t *testing.T) {
	for _, m := range endToEnd {
		if _, ok := endToEndOf[m.name]; !ok && m.name != "max_rss_mb" {
			t.Errorf("end-to-end metric %s is never computed", m.name)
		}
	}
	self := make(map[string]bool)
	for _, l := range selfLayers {
		self[l+".self_s"] = true
	}
	seen := make(map[string]bool)
	for _, m := range append(append([]metric(nil), endToEnd...), perLayer...) {
		if seen[m.name] {
			t.Errorf("metric %s listed twice", m.name)
		}
		seen[m.name] = true
	}
	for name := range self {
		if !seen[name] {
			t.Errorf("self time %s is not a per-layer metric", name)
		}
	}
}
