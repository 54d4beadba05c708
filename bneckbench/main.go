// Command bneckbench is the repository's benchmark: the host time a user
// waits for a max-min allocation that has been checked against the oracle,
// on four workloads that stress different layers. See README.md.
//
//	bneckbench --workload metro-churn --seed 3 --seconds 20 --trace 0
//	bneckbench compare parent.txt change.txt
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout))
	}
	os.Exit(benchMain(os.Args[1:], os.Stdout))
}

// value is one metric as printed: a number with its unit.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// verdict is the last line of a run, the one automated checks read.
type verdict struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// record is the self-describing line before the verdict: the run's
// metadata and every metric it measured. compare reads these.
type record struct {
	Meta    meta             `json:"meta"`
	Metrics map[string]value `json:"metrics"`
}

type meta struct {
	Workload   string         `json:"workload"`
	Seed       int64          `json:"seed"`
	Trace      bool           `json:"trace"`
	NumCPU     int            `json:"nproc"`
	GOMAXPROCS int            `json:"gomaxprocs"`
	GoVersion  string         `json:"go_version"`
	Shards     int            `json:"shards"`
	WarmShards int            `json:"warmup_shards"`
	Untraced   int            `json:"untraced_iterations"`
	Traced     int            `json:"traced_iterations"`
	Params     map[string]any `json:"params"`
}

// minIterations is the fewest timed iterations of each kind a run makes,
// however short --seconds is, so every reported median has company.
const minIterations = 3

func benchMain(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("bneckbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "seed every input is derived from")
	seconds := fs.Int("seconds", 20, "how long to keep repeating the workload")
	traceFlag := fs.Int("trace", 0, "1: alternate untraced and traced iterations and report per-layer metrics")
	out := fs.String("out", ".", "directory the span file of a traced run is written to")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := findWorkload(*name)
	if !ok || *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(os.Stderr, "bneckbench: need --workload (%s), --seconds ≥ 1 and --trace 0|1\n",
			strings.Join(workloadNames(), ", "))
		return 2
	}
	traced := *traceFlag == 1
	// The warm-up runs at one shard (the live workload has none), so the
	// gate below also checks that the shard count changes nothing.
	warmShards := min(w.shards, 1)
	md := meta{
		Workload: w.name, Seed: *seed, Trace: traced,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Shards: w.shards, WarmShards: warmShards, Params: w.params,
	}
	fmt.Fprintf(stdout, "# workload %s (seed %d): %s\n", w.name, *seed, w.why)
	fmt.Fprintf(stdout, "# nproc %d, GOMAXPROCS %d, %s, shards %d (warm-up %d)\n",
		md.NumCPU, md.GOMAXPROCS, md.GoVersion, md.Shards, md.WarmShards)

	var spans []span
	epoch := time.Now()
	attempted, failed := 0, 0
	fail := func(format string, a ...any) {
		failed++
		fmt.Fprintf(stdout, "# FAIL "+format+"\n", a...)
	}

	// The warm-up fills the heap and the caches and is not timed. Its
	// simulated outcome is the reference: every timed iteration, traced or
	// not and at whatever shard count, must reproduce it exactly.
	runtime.GC()
	warm, err := w.run(*seed, warmShards, &tracer{epoch: epoch, spans: &spans})
	attempted += warm.ops
	if err != nil {
		fail("warm-up: %v", err)
	}
	var plain, withTrace []result
	start := time.Now()
	for i := 1; failed == 0; i++ {
		done := len(plain) >= minIterations && (!traced || len(withTrace) >= minIterations)
		if done && time.Since(start) >= time.Duration(*seconds)*time.Second {
			break
		}
		on := traced && i%2 == 0
		runtime.GC() // start every iteration from the same small live heap
		c0 := readCPUTimes()
		res, err := w.run(*seed, w.shards, &tracer{on: on, run: i, epoch: epoch, spans: &spans})
		c1 := readCPUTimes()
		attempted += res.ops
		if err != nil {
			fail("iteration %d: %v", i, err)
			break
		}
		if res.sim != warm.sim {
			fail("iteration %d (traced %v, %d shards) simulated %+v, warm-up at %d shards %+v",
				i, on, w.shards, res.sim, warmShards, warm.sim)
			break
		}
		if on {
			self := layerSelfTimes(spans, i)
			for _, l := range selfLayers {
				res.layer[l+".self_s"] = self[l].Seconds()
			}
		}
		res.discountSteal(stealShare(c0, c1))
		if on {
			withTrace = append(withTrace, res)
		} else {
			plain = append(plain, res)
		}
	}
	md.Untraced, md.Traced = len(plain), len(withTrace)
	if attempted == 0 {
		attempted = 1
	}
	v := verdict{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]value{}}
	rec := record{Meta: md, Metrics: map[string]value{}}
	if failed == 0 {
		e2e := endToEndValues(plain)
		report(stdout, plain, e2e)
		for _, m := range endToEnd {
			rec.Metrics[m.name] = value{e2e[m.name], m.unit}
			if !traced {
				v.Metrics[m.name] = rec.Metrics[m.name]
			}
		}
		if traced {
			layer := perLayerValues(plain, withTrace)
			reportLayers(stdout, withTrace, layer)
			for _, m := range perLayer {
				rec.Metrics[m.name] = value{layer[m.name], m.unit}
				v.Metrics[m.name] = rec.Metrics[m.name]
			}
			path := filepath.Join(*out, fmt.Sprintf("spans-%s-seed%d.jsonl", w.name, *seed))
			if err := writeSpans(path, spans); err != nil {
				fmt.Fprintf(os.Stderr, "bneckbench: %v\n", err)
				return 1
			}
			fmt.Fprintf(stdout, "# %d spans written to %s\n", len(spans), path)
		}
	}
	enc := json.NewEncoder(stdout)
	for _, line := range []any{rec, v} {
		if err := enc.Encode(line); err != nil {
			fmt.Fprintf(os.Stderr, "bneckbench: %v\n", err)
			return 1
		}
	}
	if failed > 0 {
		return 1
	}
	return 0
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads() {
		names = append(names, w.name)
	}
	return names
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads() {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// perIteration returns one end-to-end figure of each iteration.
func perIteration(rs []result, f func(result) float64) []float64 {
	out := make([]float64, len(rs))
	for i, r := range rs {
		out[i] = f(r)
	}
	return out
}

var endToEndOf = map[string]func(result) float64{
	"setup_s":          func(r result) float64 { return r.setup.Seconds() },
	"converge_s":       func(r result) float64 { return r.converge.Seconds() },
	"validate_s":       func(r result) float64 { return r.validate.Seconds() },
	"total_s":          func(r result) float64 { return r.total.Seconds() },
	"pkts_per_s":       func(r result) float64 { return float64(r.packets) / r.converge.Seconds() },
	"pkts_per_session": func(r result) float64 { return float64(r.packets) / float64(r.sessions) },
}

// endToEndValues takes the median of every end-to-end figure over the
// untraced iterations; peak memory is the process's.
func endToEndValues(rs []result) map[string]float64 {
	out := make(map[string]float64)
	for name, f := range endToEndOf {
		out[name] = median(perIteration(rs, f))
	}
	out["max_rss_mb"] = maxRSSMB()
	return out
}

// maxRSSMB returns the peak resident set of this process, which ran only
// the one workload.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// perLayerValues takes the median of every per-layer figure over the traced
// iterations, plus the tracing overhead: traced minus untraced median
// total_s.
func perLayerValues(plain, withTrace []result) map[string]float64 {
	out := make(map[string]float64)
	for _, m := range perLayer {
		vals := make([]float64, len(withTrace))
		for i, r := range withTrace {
			vals[i] = r.layer[m.name]
		}
		out[m.name] = median(vals)
	}
	total := endToEndOf["total_s"]
	out["bench.trace_overhead_s"] = median(perIteration(withTrace, total)) - median(perIteration(plain, total))
	return out
}

func report(w io.Writer, rs []result, e2e map[string]float64) {
	fmt.Fprintf(w, "# end to end, median of %d untraced iterations [q1 q3]\n", len(rs))
	for _, m := range endToEnd {
		f, ok := endToEndOf[m.name]
		if !ok {
			fmt.Fprintf(w, "#   %-18s %12.4f %-7s %s is better\n", m.name, e2e[m.name], m.unit, m.better())
			continue
		}
		q1, _, q3 := quartiles(perIteration(rs, f))
		fmt.Fprintf(w, "#   %-18s %12.4f %-7s %s is better  [%.4f %.4f]\n", m.name, e2e[m.name], m.unit, m.better(), q1, q3)
	}
	fmt.Fprintf(w, "# total_s per iteration (share stolen by the hypervisor, taken out):")
	for _, r := range rs {
		fmt.Fprintf(w, " %.4f (%.0f%%)", r.total.Seconds(), 100*r.steal)
	}
	fmt.Fprintln(w)
	t := e2e["total_s"]
	fmt.Fprintf(w, "# host time: setup %.0f%%, converge %.0f%%, validate %.0f%% of total_s\n",
		100*e2e["setup_s"]/t, 100*e2e["converge_s"]/t, 100*e2e["validate_s"]/t)
}

func reportLayers(w io.Writer, withTrace []result, layer map[string]float64) {
	fmt.Fprintf(w, "# per layer, median of %d traced iterations\n", len(withTrace))
	for _, m := range perLayer {
		fmt.Fprintf(w, "#   %-26s %14.4f %-7s %s is better\n", m.name, layer[m.name], m.unit, m.better())
	}
	total := median(perIteration(withTrace, endToEndOf["total_s"]))
	var sum float64
	type share struct {
		layer string
		s     float64
	}
	var shares []share
	for _, l := range selfLayers {
		s := layer[l+".self_s"]
		sum += s
		shares = append(shares, share{l, s})
	}
	sort.SliceStable(shares, func(a, b int) bool { return shares[a].s > shares[b].s })
	fmt.Fprintf(w, "# where host time goes (layer self time, traced total_s %.4f s)\n", total)
	for _, s := range shares {
		fmt.Fprintf(w, "#   %-10s %10.4f s %6.1f%%\n", s.layer, s.s, 100*s.s/total)
	}
	fmt.Fprintf(w, "#   self times sum to %.4f s (%.1f%% of total_s)\n", sum, 100*sum/total)
	fmt.Fprintf(w, "# tracing overhead: %+.4f s on total_s\n", layer["bench.trace_overhead_s"])
	if calls := int(layer["graph.resolve_calls"]); calls > 0 {
		fmt.Fprintf(w, "# graph.resolve: %d calls per iteration support percentiles up to p%g\n",
			calls, highestPercentile(calls))
	}
}
