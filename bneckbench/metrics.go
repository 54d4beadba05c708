package main

// metric describes one reported figure. BENCHMARK.json at the repository
// root lists the same names, units, directions and bounds; a test keeps the
// two in step.
type metric struct {
	name, unit string
	lower      bool    // lower is better
	bound      float64 // end-to-end only: tolerated worsening, as a share of the parent's median
}

// isTime reports whether the metric is a host time. Virtual time has its
// own unit.
func (m metric) isTime() bool {
	switch m.unit {
	case "s", "ms", "us", "ns":
		return true
	}
	return false
}

func (m metric) better() string {
	if m.lower {
		return "lower"
	}
	return "higher"
}

// endToEnd are the figures a user of the reproduction sees: host time to a
// validated allocation and what that allocation cost. Every one is nonzero
// on every workload. Host times on a shared machine with two CPUs spread by
// up to a fifth between runs, so they and setup_s carry the widest bound
// allowed; packets per session depend only on the inputs.
var endToEnd = []metric{
	{"setup_s", "s", true, 0.25},
	{"converge_s", "s", true, 0.25},
	{"validate_s", "s", true, 0.25},
	{"total_s", "s", true, 0.25},
	{"pkts_per_s", "pkts/s", false, 0.25},
	{"max_rss_mb", "MB", true, 0.25},
	{"pkts_per_session", "pkts", true, 0.2},
}

// perLayer are the figures of single layers, from traced iterations.
// Counters that a layer does not exercise on a workload read 0.
var perLayer = []metric{
	{name: "topology.generate_s", unit: "s", lower: true},
	{name: "topology.addhosts_s", unit: "s", lower: true},
	{name: "topology.routers", unit: "count", lower: false},
	{name: "topology.links", unit: "count", lower: false},
	{name: "topology.self_s", unit: "s", lower: true},

	{name: "graph.resolve_s", unit: "s", lower: true},
	{name: "graph.resolve_p50_us", unit: "us", lower: true},
	{name: "graph.resolve_p99_us", unit: "us", lower: true},
	{name: "graph.resolve_calls", unit: "count", lower: false},
	{name: "graph.src_routers", unit: "count", lower: false},
	{name: "graph.path_hops_mean", unit: "links", lower: true},
	{name: "graph.alloc_mb", unit: "MB", lower: true},
	{name: "graph.self_s", unit: "s", lower: true},

	{name: "network.register_s", unit: "s", lower: true},
	{name: "network.schedule_s", unit: "s", lower: true},
	{name: "network.run_calls", unit: "count", lower: false},
	{name: "network.epoch_run_p50_ms", unit: "ms", lower: true},
	{name: "network.migrations", unit: "count", lower: true},
	{name: "network.reconfig_pkts", unit: "pkts", lower: true},
	{name: "network.self_s", unit: "s", lower: true},

	{name: "sim.events", unit: "count", lower: true},
	{name: "sim.ns_per_event", unit: "ns", lower: true},
	{name: "sim.shards", unit: "count", lower: false},
	{name: "sim.lookahead_us", unit: "us", lower: false},
	{name: "sim.alloc_bytes_per_event", unit: "B", lower: true},
	{name: "sim.self_s", unit: "s", lower: true},

	{name: "core.pkts.join", unit: "pkts", lower: true},
	{name: "core.pkts.probe", unit: "pkts", lower: true},
	{name: "core.pkts.response", unit: "pkts", lower: true},
	{name: "core.pkts.update", unit: "pkts", lower: true},
	{name: "core.pkts.bottleneck", unit: "pkts", lower: true},
	{name: "core.pkts.setbottleneck", unit: "pkts", lower: true},
	{name: "core.pkts.leave", unit: "pkts", lower: true},
	{name: "core.virt_quiescence_ms", unit: "virt_ms", lower: true},
	{name: "core.virt_settle_p50_ms", unit: "virt_ms", lower: true},
	{name: "core.virt_settle_p99_ms", unit: "virt_ms", lower: true},

	{name: "waterfill.validate_calls", unit: "count", lower: false},
	{name: "waterfill.validate_p50_ms", unit: "ms", lower: true},
	{name: "waterfill.full_solves", unit: "count", lower: true},
	{name: "waterfill.delta_solves", unit: "count", lower: false},
	{name: "waterfill.fallbacks", unit: "count", lower: true},
	{name: "waterfill.delta_share", unit: "ratio", lower: false},
	{name: "waterfill.alloc_mb", unit: "MB", lower: true},
	{name: "waterfill.self_s", unit: "s", lower: true},

	{name: "live.newsession_s", unit: "s", lower: true},
	{name: "live.join_s", unit: "s", lower: true},
	{name: "live.wait_s", unit: "s", lower: true},
	{name: "live.fail_restore_s", unit: "s", lower: true},
	{name: "live.validate_s", unit: "s", lower: true},
	{name: "live.migrations", unit: "count", lower: true},
	{name: "live.pkts", unit: "pkts", lower: true},
	{name: "live.self_s", unit: "s", lower: true},

	{name: "runtime.gc_cycles", unit: "count", lower: true},
	{name: "runtime.gc_pause_s", unit: "s", lower: true},

	{name: "bench.self_s", unit: "s", lower: true},
	{name: "bench.trace_overhead_s", unit: "s", lower: true},
	{name: "bench.steal_share", unit: "ratio", lower: true},
}

// selfLayers are the layers whose self time is reported as <layer>.self_s.
var selfLayers = []string{"topology", "graph", "network", "sim", "waterfill", "live", "bench"}
