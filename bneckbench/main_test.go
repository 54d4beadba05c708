package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestTracedRunReportsEveryMetric runs lan-steady for its minimum number of
// iterations with tracing and checks the two JSON lines that close the
// output: the record carries every metric, the verdict the per-layer ones.
func TestTracedRunReportsEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the lan-steady workload seven times")
	}
	dir := t.TempDir()
	var out bytes.Buffer
	code := benchMain([]string{"--workload", "lan-steady", "--seed", "2", "--seconds", "1", "--trace", "1", "--out", dir}, &out)
	if code != 0 {
		t.Fatalf("exit %d\n%s", code, out.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var rec record
	var v verdict
	if err := json.Unmarshal([]byte(lines[len(lines)-2]), &rec); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &v); err != nil {
		t.Fatal(err)
	}
	if !v.Correct || v.Failed != 0 || v.Attempted < 1 {
		t.Errorf("verdict %+v", v)
	}
	if len(v.Metrics) != len(perLayer) {
		t.Errorf("traced verdict has %d metrics, want the %d per-layer ones", len(v.Metrics), len(perLayer))
	}
	for _, m := range perLayer {
		if _, ok := v.Metrics[m.name]; !ok {
			t.Errorf("verdict lacks %s", m.name)
		}
	}
	for _, m := range endToEnd {
		if got := rec.Metrics[m.name]; got.Value <= 0 || got.Unit != m.unit {
			t.Errorf("record %s = %+v", m.name, got)
		}
	}
	if rec.Meta.Untraced < minIterations || rec.Meta.Traced < minIterations || rec.Meta.GOMAXPROCS < 1 {
		t.Errorf("meta %+v", rec.Meta)
	}
	spans, err := os.ReadFile(filepath.Join(dir, "spans-lan-steady-seed2.jsonl"))
	if err != nil || !bytes.Contains(spans, []byte(`"name":"sim.run"`)) {
		t.Errorf("span file: %v", err)
	}
}

func TestUnknownWorkloadFails(t *testing.T) {
	var out bytes.Buffer
	if code := benchMain([]string{"--workload", "nope", "--seed", "1"}, &out); code == 0 {
		t.Error("an unknown workload exited 0")
	}
	if strings.Contains(out.String(), `"correct"`) {
		t.Error("an unknown workload printed a verdict")
	}
}
