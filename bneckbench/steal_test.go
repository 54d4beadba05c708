package main

import (
	"testing"
	"time"
)

func TestParseCPULine(t *testing.T) {
	got, ok := parseCPULine("cpu  925447 10 30517 848928 324 5 6427 60670 0 0")
	if !ok || got.busy != 925447+10+30517+5+6427 || got.steal != 60670 {
		t.Errorf("parseCPULine = %+v, %v", got, ok)
	}
	for _, bad := range []string{"", "cpu0 1 2 3 4 5 6 7 8", "cpu 1 2 3", "cpu 1 2 3 4 5 6 7 x"} {
		if _, ok := parseCPULine(bad); ok {
			t.Errorf("parseCPULine(%q) accepted", bad)
		}
	}
}

func TestStealShare(t *testing.T) {
	a := cpuTimes{busy: 1000, steal: 100}
	if got := stealShare(a, cpuTimes{busy: 1300, steal: 200}); got != 0.25 {
		t.Errorf("share %g, want 0.25", got)
	}
	if got := stealShare(a, a); got != 0 {
		t.Errorf("no time passed: share %g", got)
	}
}

func TestDiscountStealScalesHostTimesOnly(t *testing.T) {
	r := result{
		setup: 4 * time.Second, converge: 8 * time.Second, validate: 2 * time.Second, total: 16 * time.Second,
		packets: 80,
		layer:   map[string]float64{"graph.resolve_s": 2, "sim.ns_per_event": 100, "sim.events": 10, "core.virt_quiescence_ms": 7},
	}
	r.discountSteal(0.25)
	if r.setup != 3*time.Second || r.converge != 6*time.Second || r.validate != 1500*time.Millisecond || r.total != 12*time.Second {
		t.Errorf("times %v %v %v %v", r.setup, r.converge, r.validate, r.total)
	}
	want := map[string]float64{"graph.resolve_s": 1.5, "sim.ns_per_event": 75, "sim.events": 10, "core.virt_quiescence_ms": 7, "bench.steal_share": 0.25}
	for k, v := range want {
		if r.layer[k] != v {
			t.Errorf("%s = %g, want %g", k, r.layer[k], v)
		}
	}
}
