package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
)

// decision is the outcome of comparing one end-to-end metric on one
// workload between the parent and a change.
type decision string

const (
	improved   decision = "improved"
	unchanged  decision = "unchanged"
	worse      decision = "worse"
	unresolved decision = "unresolved"
)

// minPairs is the fewest parent/change pairs a decision rests on.
const minPairs = 10

// decide applies the paired rule to the i-th parent and i-th change values
// of one metric. A change improves the metric when it wins at least nine
// tenths of the pairs (ties count for neither side) and the medians differ
// by more than the parent's interquartile range. It is worse when its
// median is worse than the parent's by more than bound (a share of the
// parent's median). Otherwise it is unchanged, unless either side's spread
// is wider than the bound and not every change value beats every parent
// value: then it is unresolved.
func decide(parent, change []float64, lower bool, bound float64) (decision, string) {
	n := min(len(parent), len(change))
	if n < minPairs {
		return unresolved, fmt.Sprintf("%d pairs, need %d", n, minPairs)
	}
	parent, change = parent[:n], change[:n]
	better := func(c, p float64) bool {
		if lower {
			return c < p
		}
		return c > p
	}
	wins := 0
	for i := range parent {
		if better(change[i], parent[i]) {
			wins++
		}
	}
	pm, cm := median(parent), median(change)
	why := fmt.Sprintf("wins %d/%d, median %.4g → %.4g, parent iqr %.4g", wins, n, pm, cm, iqr(parent))
	if wins*10 >= 9*n && math.Abs(cm-pm) > iqr(parent) && better(cm, pm) {
		return improved, why
	}
	if pm != 0 && better(pm, cm) && math.Abs(cm-pm)/math.Abs(pm) > bound {
		return worse, why
	}
	if max(relSpread(parent), relSpread(change)) > bound && !allBetter(parent, change, better) {
		return unresolved, why + ", spread wider than the bound"
	}
	return unchanged, why
}

// allBetter reports whether every change value beats every parent value.
func allBetter(parent, change []float64, better func(c, p float64) bool) bool {
	for _, c := range change {
		for _, p := range parent {
			if !better(c, p) {
				return false
			}
		}
	}
	return true
}

// readRecords extracts the record lines of benchmark runs from a file of
// their concatenated standard output, in order, grouped by workload.
func readRecords(path string) (map[string][]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := make(map[string][]record)
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if !strings.HasPrefix(string(line), `{"meta":`) {
			continue
		}
		var r record
		if err := json.Unmarshal(line, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out[r.Meta.Workload] = append(out[r.Meta.Workload], r)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("reading %s: %w", path, err)
	}
	return out, nil
}

// compareMain reads the outputs of alternating parent and change runs and
// prints a decision for every end-to-end metric on every workload. It exits
// 1 when any metric got worse.
func compareMain(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("bneckbench compare", flag.ContinueOnError)
	fs.Usage = func() {
		fmt.Fprintln(fs.Output(), "usage: bneckbench compare parent-output change-output")
	}
	if err := fs.Parse(args); err != nil || fs.NArg() != 2 {
		fs.Usage()
		return 2
	}
	parent, err := readRecords(fs.Arg(0))
	if err != nil {
		fmt.Fprintf(os.Stderr, "bneckbench: %v\n", err)
		return 2
	}
	change, err := readRecords(fs.Arg(1))
	if err != nil {
		fmt.Fprintf(os.Stderr, "bneckbench: %v\n", err)
		return 2
	}
	var names []string
	for name := range parent {
		if _, ok := change[name]; ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		fmt.Fprintln(os.Stderr, "bneckbench: no workload appears in both outputs")
		return 2
	}
	status := 0
	for _, name := range names {
		for _, m := range endToEnd {
			p, c := metricValues(parent[name], m.name), metricValues(change[name], m.name)
			d, why := decide(p, c, m.lower, m.bound)
			fmt.Fprintf(stdout, "%-15s %-17s %-10s (bound %.0f%%; %s)\n", name, m.name, d, 100*m.bound, why)
			if d == worse {
				status = 1
			}
		}
	}
	return status
}

func metricValues(rs []record, name string) []float64 {
	var out []float64
	for _, r := range rs {
		if v, ok := r.Metrics[name]; ok {
			out = append(out, v.Value)
		}
	}
	return out
}
