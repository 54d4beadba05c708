package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// around returns n values alternating just below and above centre.
func around(centre, jitter float64, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		if i%2 == 0 {
			v[i] = centre - jitter
		} else {
			v[i] = centre + jitter
		}
	}
	return v
}

func TestDecide(t *testing.T) {
	for _, tc := range []struct {
		name           string
		parent, change []float64
		lower          bool
		bound          float64
		want           decision
	}{
		{"faster in every pair", around(10, 0.1, 10), around(8, 0.1, 10), true, 0.1, improved},
		{"higher is better", around(100, 1, 10), around(120, 1, 10), false, 0.1, improved},
		{"within the parent's spread", around(10, 1, 10), around(9.8, 1, 10), true, 0.25, unchanged},
		{"slower beyond the bound", around(10, 0.1, 10), around(12, 0.1, 10), true, 0.1, worse},
		{"slower within the bound", around(10, 0.1, 10), around(10.5, 0.1, 10), true, 0.1, unchanged},
		{"too few pairs", around(10, 0.1, 9), around(5, 0.1, 9), true, 0.1, unresolved},
		{"spread wider than the bound", around(10, 3, 10), around(10.2, 3, 10), true, 0.1, unresolved},
		{"identical counts", around(7, 0, 10), around(7, 0, 10), true, 0.1, unchanged},
	} {
		got, why := decide(tc.parent, tc.change, tc.lower, tc.bound)
		if got != tc.want {
			t.Errorf("%s: %s (%s), want %s", tc.name, got, why, tc.want)
		}
	}
}

func TestDecideNeedsNineTenthsOfPairs(t *testing.T) {
	parent := around(10, 0.01, 10)
	change := around(8, 0.01, 10)
	change[0], change[1] = 11, 11 // the change loses two pairs
	if got, why := decide(parent, change, true, 0.5); got == improved {
		t.Errorf("8/10 wins counted as improved (%s)", why)
	}
	change[1] = 8
	if got, why := decide(parent, change, true, 0.5); got != improved {
		t.Errorf("9/10 wins: %s (%s), want improved", got, why)
	}
}

func TestDecideSpreadClearedByTotalSeparation(t *testing.T) {
	// Both sides spread wider than the bound and the medians differ by less
	// than the parent's interquartile range, but every change run beats
	// every parent run: the metric is not left unresolved.
	parent := []float64{20, 22, 30, 40, 20, 22, 30, 40, 25, 35}
	change := []float64{15, 16, 18, 19, 15, 16, 18, 19, 17, 19.5}
	if got, why := decide(parent, change, true, 0.1); got != unchanged {
		t.Errorf("%s (%s), want unchanged", got, why)
	}
	change[9] = 21 // one change run no longer beats every parent run
	if got, why := decide(parent, change, true, 0.1); got != unresolved {
		t.Errorf("%s (%s), want unresolved", got, why)
	}
}

func TestCompareReadsRunOutputs(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, totals []float64) string {
		var b bytes.Buffer
		for _, v := range totals {
			rec := record{Meta: meta{Workload: "lan-steady"}, Metrics: map[string]value{}}
			for _, m := range endToEnd {
				rec.Metrics[m.name] = value{1, m.unit}
			}
			rec.Metrics["total_s"] = value{v, "s"}
			b.WriteString("# human-readable report line\n")
			line, _ := json.Marshal(rec)
			b.Write(line)
			b.WriteString("\n{\"correct\":true,\"attempted\":1,\"failed\":0,\"metrics\":{}}\n")
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, b.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	parent := write("parent.txt", around(2, 0.01, 10))
	change := write("change.txt", around(3, 0.01, 10))
	var out bytes.Buffer
	if code := compareMain([]string{parent, change}, &out); code != 1 {
		t.Errorf("exit %d for a slower change, want 1\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "total_s") || !strings.Contains(out.String(), string(worse)) {
		t.Errorf("report lacks the worse total_s:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "setup_s           unchanged") {
		t.Errorf("identical setup_s not reported unchanged:\n%s", out.String())
	}
}
