package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around the
// call. Offsets are from the tracer's epoch, so spans of different
// iterations of one process share a time base.
type span struct {
	Run    int    `json:"run"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // noSpan for an iteration's root
	Name   string `json:"name"`   // "<layer>.<call>"
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

const noSpan = -1

// tracer times the calls an iteration makes. Every call is timed, traced or
// not, because the end-to-end metrics are built from those times; only a
// traced iteration keeps the spans, reads allocation counters and times
// every path resolution.
type tracer struct {
	on    bool
	run   int
	epoch time.Time
	spans *[]span // shared by the tracers of one process
}

// timer is an open span.
type timer struct {
	id    int
	start time.Time
}

func (t *tracer) begin(name string, parent timer) timer {
	now := time.Now()
	if !t.on {
		return timer{id: noSpan, start: now}
	}
	id := len(*t.spans)
	*t.spans = append(*t.spans, span{
		Run: t.run, ID: id, Parent: parent.id, Name: name,
		Start: int64(now.Sub(t.epoch)), End: -1,
	})
	return timer{id: id, start: now}
}

// root opens an iteration's outermost span.
func (t *tracer) root(name string) timer { return t.begin(name, timer{id: noSpan}) }

// end closes the span and returns its duration.
func (t *tracer) end(tm timer) time.Duration {
	now := time.Now()
	if tm.id != noSpan {
		(*t.spans)[tm.id].End = int64(now.Sub(t.epoch))
	}
	return now.Sub(tm.start)
}

// layerOf returns the layer a span name belongs to: the part before the
// first dot.
func layerOf(name string) string {
	layer, _, _ := strings.Cut(name, ".")
	return layer
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its child spans cover. Overlapping children count once,
// and a child reaching outside its parent counts only inside it.
func selfTimes(spans []span) map[int]time.Duration {
	children := make(map[int][][2]int64)
	for _, s := range spans {
		if s.Parent != noSpan {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	self := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		iv := children[s.ID]
		sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
		covered, reach := int64(0), s.Start
		for _, c := range iv {
			lo, hi := max(c[0], reach), min(c[1], s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[s.ID] = time.Duration(s.End - s.Start - covered)
	}
	return self
}

// layerSelfTimes sums self time per layer over the spans of one run.
func layerSelfTimes(spans []span, run int) map[string]time.Duration {
	var mine []span
	for _, s := range spans {
		if s.Run == run {
			mine = append(mine, s)
		}
	}
	self := selfTimes(mine)
	out := make(map[string]time.Duration)
	for _, s := range mine {
		out[layerOf(s.Name)] += self[s.ID]
	}
	return out
}

// writeSpans writes the spans as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
}
