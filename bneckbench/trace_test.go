package main

import (
	"math"
	"testing"
	"time"
)

func TestSelfTimeNestedAndOverlapping(t *testing.T) {
	spans := []span{
		{Run: 1, ID: 0, Parent: noSpan, Name: "bench.iteration", Start: 0, End: 100},
		// Two children of the root that overlap on [30, 40).
		{Run: 1, ID: 1, Parent: 0, Name: "graph.resolve", Start: 10, End: 40},
		{Run: 1, ID: 2, Parent: 0, Name: "sim.run", Start: 30, End: 70},
		// A grandchild nested in the second child.
		{Run: 1, ID: 3, Parent: 2, Name: "waterfill.validate", Start: 50, End: 60},
		// A child reaching past its parent's end counts only inside it.
		{Run: 1, ID: 4, Parent: 3, Name: "live.wait", Start: 55, End: 65},
	}
	self := selfTimes(spans)
	want := map[int]time.Duration{
		0: 100 - 60, // children cover [10, 70)
		1: 30,
		2: 40 - 10,
		3: 10 - 5,
		4: 10,
	}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("span %d (%s): self %d, want %d", id, spans[id].Name, self[id], w)
		}
	}
	// Only disjoint, contained spans partition the root. Here the overlap on
	// [30, 40) is charged to both children and the part of span 4 outside
	// its parent to span 4 alone, so the sum exceeds the root by 10 + 5.
	var sum time.Duration
	for _, d := range self {
		sum += d
	}
	if sum != 100+10+5 {
		t.Errorf("self times sum to %d, want 115", sum)
	}
}

func TestLayerSelfTimesPerRun(t *testing.T) {
	spans := []span{
		{Run: 1, ID: 0, Parent: noSpan, Name: "bench.iteration", Start: 0, End: 10},
		{Run: 1, ID: 1, Parent: 0, Name: "sim.run", Start: 2, End: 6},
		{Run: 1, ID: 2, Parent: 0, Name: "sim.run", Start: 6, End: 9},
		{Run: 2, ID: 3, Parent: noSpan, Name: "bench.iteration", Start: 20, End: 40},
		{Run: 2, ID: 4, Parent: 3, Name: "graph.resolve", Start: 20, End: 35},
	}
	got := layerSelfTimes(spans, 1)
	if got["bench"] != 3 || got["sim"] != 7 || len(got) != 2 {
		t.Errorf("run 1 layers %v, want bench 3, sim 7", got)
	}
	got = layerSelfTimes(spans, 2)
	if got["bench"] != 5 || got["graph"] != 15 || len(got) != 2 {
		t.Errorf("run 2 layers %v, want bench 5, graph 15", got)
	}
}

func TestTracerOffRecordsNothing(t *testing.T) {
	var spans []span
	tr := &tracer{epoch: time.Now(), spans: &spans}
	root := tr.root("bench.iteration")
	c := tr.begin("sim.run", root)
	if d := tr.end(c); d < 0 {
		t.Errorf("negative duration %v", d)
	}
	tr.end(root)
	if len(spans) != 0 {
		t.Errorf("untraced tracer kept %d spans", len(spans))
	}
	tr.on = true
	root = tr.root("bench.iteration")
	tr.end(tr.begin("sim.run", root))
	tr.end(root)
	if len(spans) != 2 || spans[1].Parent != spans[0].ID || spans[0].End < spans[1].End {
		t.Errorf("traced spans %+v", spans)
	}
}

// An iteration whose instances exercise no layer still reports finite
// figures: the verdict line cannot carry NaN.
func TestEmptyIterationIsFinite(t *testing.T) {
	var spans []span
	r, err := iterate(&tracer{on: true, epoch: time.Now(), spans: &spans}, 1,
		func(int, timer, *result) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	for name, v := range r.layer {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("%s = %g", name, v)
		}
	}
}
