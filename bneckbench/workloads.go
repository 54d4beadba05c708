package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"time"

	"bneck/internal/core"
	"bneck/internal/graph"
	"bneck/internal/live"
	"bneck/internal/network"
	"bneck/internal/rate"
	"bneck/internal/sim"
	"bneck/internal/topology"
	"bneck/internal/trace"
)

// workload is one batch job at a fixed input size. run executes one
// iteration of it: every instance from topology generation to a validated
// allocation, with inputs derived only from the seed.
type workload struct {
	name   string
	why    string
	params map[string]any
	// shards is the engine shard count of the timed iterations; zero for
	// the live workload.
	shards int
	run    func(seed int64, shards int, tr *tracer) (result, error)
}

// result is what one iteration measured, summed over its instances.
type result struct {
	setup, converge, validate, total time.Duration
	packets                          uint64
	sessions                         int
	ops                              int // placements, Runs, Validates and waits attempted
	sim                              outcome
	steal                            float64 // share of the CPU time wanted that the hypervisor withheld
	layer                            map[string]float64
	// samples pools per-call and per-session values over the instances
	// for the percentile metrics.
	resolveUs, runMs, validateMs, settle []float64
}

// discountSteal takes the share of CPU time the hypervisor withheld out of
// every host time the iteration measured (see steal.go).
func (r *result) discountSteal(share float64) {
	r.steal = share
	k := 1 - share
	for _, d := range []*time.Duration{&r.setup, &r.converge, &r.validate, &r.total} {
		*d = time.Duration(float64(*d) * k)
	}
	for _, m := range perLayer {
		if m.isTime() {
			r.layer[m.name] *= k
		}
	}
	r.layer["bench.steal_share"] = share
}

// outcome is the deterministic part of a simulated iteration. For a seed it
// must not depend on the shard count, on tracing, or on which iteration of
// a process produced it; only a protocol change may move it.
type outcome struct {
	Events       uint64
	Pkts         [core.PktLeave]uint64 // by core.PacketType-1
	Busy         sim.Time              // summed Run spans of virtual time
	SettleP50    sim.Time
	SettleP99    sim.Time
	Migrations   uint64
	ReconfigPkts uint64
	FullSolves   uint64
	DeltaSolves  uint64
	Fallbacks    uint64
}

// pktNames names core.PacketType 1..7 for the core.pkts.* metrics.
var pktNames = [core.PktLeave]string{"join", "probe", "response", "update", "bottleneck", "setbottleneck", "leave"}

// Fixed workload constants. Every seed runs on the same topology: a seed
// draws the host attachment, the session pairs, the demands and the join
// times. The protocol's work still varies between such inputs by about a
// tenth, so the smaller workloads run several instances per iteration and
// report their sum. The rest are the paper's 1 ms burst width and
// mixed-demand share, the resolver cache exp.PlaceSessions uses, the gap
// between churn epochs and how long a failed link stays down.
const (
	topologySeed  = 1
	burstWindow   = time.Millisecond
	cappedShare   = 0.25
	resolverCache = 256
	epochGap      = 5 * time.Millisecond
	failFor       = 50 * time.Millisecond
)

func workloads() []workload {
	procs := runtime.GOMAXPROCS(0)
	return []workload{
		simWorkload(simSpec{
			name: "internet-burst",
			why:  "10k-router internet rung: path resolution dominates; the only multi-shard workload",
			topo: func() (topology.Hosted, func() [][]int32, error) {
				t, err := topology.GenerateInternet(topology.InternetGlobal, topologySeed)
				if err != nil {
					return nil, nil, err
				}
				return t, t.Hierarchy, nil
			},
			topoName:  topology.InternetGlobal.Name,
			instances: 1,
			sessions:  2500,
			shards:    procs,
		}),
		simWorkload(simSpec{
			name: "lan-steady",
			why:  "per-packet regime: transit-stub Small on 1 us links, where Run is most of the time",
			topo: func() (topology.Hosted, func() [][]int32, error) {
				t, err := topology.Generate(topology.Small, topology.LAN, topologySeed)
				return t, nil, err
			},
			topoName:  topology.Small.Name + "/LAN",
			instances: 4,
			sessions:  1000,
			shards:    1,
		}),
		simWorkload(simSpec{
			name: "metro-churn",
			why:  "1k-router metro rung under churn and link failures: migrations, stale BFS trees, delta oracle solves",
			topo: func() (topology.Hosted, func() [][]int32, error) {
				t, err := topology.GenerateInternet(topology.InternetMetro, topologySeed)
				if err != nil {
					return nil, nil, err
				}
				return t, t.Hierarchy, nil
			},
			topoName:  topology.InternetMetro.Name,
			instances: 2,
			sessions:  2000,
			epochs:    16,
			churn:     40,
			shards:    1,
		}),
		liveWorkload(liveSpec{
			name:       "live-storm",
			why:        "the concurrent actor runtime: closed-loop join storm, then a fail/restore cycle",
			instances:  2,
			sessions:   1000,
			generators: procs,
		}),
	}
}

// instanceSeed derives the seed of instance j of an iteration.
func instanceSeed(seed int64, instances, j int) int64 { return seed*int64(instances) + int64(j) }

// simSpec sizes a simulator workload.
type simSpec struct {
	name, why, topoName string
	topo                func() (topology.Hosted, func() [][]int32, error)
	instances           int // independent networks per iteration
	sessions            int // per instance, joining in the burst at virtual time 0
	epochs, churn       int // churn epochs after the burst; sessions per kind per epoch
	shards              int
}

func simWorkload(sp simSpec) workload {
	params := map[string]any{
		"topology": sp.topoName, "instances": sp.instances, "sessions_per_instance": sp.sessions,
		"join_window": burstWindow.String(), "capped_demand_share": cappedShare,
		"engine": "sharded", "window_batch": "default", "speculate": false,
		"path_policy": "pinned", "incremental_oracle": true,
	}
	if sp.epochs > 0 {
		params["epochs"] = sp.epochs
		params["churn_per_epoch"] = sp.churn
		params["fail_for"] = failFor.String()
	}
	return workload{
		name: sp.name, why: sp.why, params: params,
		shards: sp.shards,
		run: func(seed int64, shards int, tr *tracer) (result, error) {
			return iterate(tr, sp.instances, func(j int, root timer, r *result) error {
				return runSim(sp, instanceSeed(seed, sp.instances, j), shards, tr, root, r)
			})
		},
	}
}

// iterate runs the instances of one iteration under one root span and
// derives the metrics that pool over them.
func iterate(tr *tracer, instances int, inst func(j int, root timer, r *result) error) (result, error) {
	r := result{layer: make(map[string]float64)}
	var gc0 runtime.MemStats
	if tr.on {
		runtime.ReadMemStats(&gc0)
	}
	root := tr.root("bench.iteration")
	for j := 0; j < instances; j++ {
		if err := inst(j, root, &r); err != nil {
			tr.end(root)
			return r, err
		}
	}
	r.total = tr.end(root)

	l := r.layer
	if calls := l["graph.resolve_calls"]; calls > 0 {
		l["graph.path_hops_mean"] /= calls
	}
	if r.settle != nil {
		l["network.run_calls"] = float64(len(r.runMs))
		l["network.epoch_run_p50_ms"] = median(r.runMs)
		l["waterfill.validate_calls"] = float64(len(r.validateMs))
		l["waterfill.validate_p50_ms"] = median(r.validateMs)
		sort.Float64s(r.settle)
		p50, _ := percentile(r.settle, 50)
		p99, ok := percentile(r.settle, 99)
		if !ok {
			return r, fmt.Errorf("%d sessions cannot support a settling-time p99", len(r.settle))
		}
		r.sim.SettleP50, r.sim.SettleP99 = sim.Time(p50), sim.Time(p99)
		l["core.virt_quiescence_ms"] = ms(r.sim.Busy)
		l["core.virt_settle_p50_ms"] = ms(r.sim.SettleP50)
		l["core.virt_settle_p99_ms"] = ms(r.sim.SettleP99)
		l["sim.events"] = float64(r.sim.Events)
		l["sim.ns_per_event"] = float64(r.converge.Nanoseconds()) / float64(r.sim.Events)
		for i, name := range pktNames {
			l["core.pkts."+name] = float64(r.sim.Pkts[i])
		}
		l["network.migrations"] = float64(r.sim.Migrations)
		l["network.reconfig_pkts"] = float64(r.sim.ReconfigPkts)
		l["waterfill.full_solves"] = float64(r.sim.FullSolves)
		l["waterfill.delta_solves"] = float64(r.sim.DeltaSolves)
		l["waterfill.fallbacks"] = float64(r.sim.Fallbacks)
		l["waterfill.delta_share"] = float64(r.sim.DeltaSolves) / float64(r.sim.FullSolves+r.sim.DeltaSolves)
	}
	if tr.on {
		if r.resolveUs != nil {
			sort.Float64s(r.resolveUs)
			l["graph.resolve_p50_us"], _ = percentile(r.resolveUs, 50)
			l["graph.resolve_p99_us"], _ = percentile(r.resolveUs, 99)
		}
		if r.sim.Events > 0 {
			l["sim.alloc_bytes_per_event"] /= float64(r.sim.Events)
		}
		var gc1 runtime.MemStats
		runtime.ReadMemStats(&gc1)
		l["runtime.gc_cycles"] = float64(gc1.NumGC - gc0.NumGC)
		l["runtime.gc_pause_s"] = float64(gc1.PauseTotalNs-gc0.PauseTotalNs) / 1e9
	}
	return r, nil
}

// memProbe reads the heap's cumulative allocation, but only on traced
// iterations: ReadMemStats stops the world.
type memProbe struct{ on bool }

func (m memProbe) alloc() uint64 {
	if !m.on {
		return 0
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

func mb(bytes uint64) float64 { return float64(bytes) / (1 << 20) }

func ms(t sim.Time) float64 { return float64(t.Nanoseconds()) / 1e6 }

// pair is one session's endpoints; idx is its position in the join order.
type pair struct {
	idx      int
	src, dst graph.NodeID
}

// placement is the outcome of placing sessions as exp.PlaceSessions does:
// hosts attached, destinations drawn from the topology's own RNG stream
// (reseeded with the instance's seed), and paths resolved in source-router
// order so the resolver's tree cache works.
type placement struct {
	pairs []pair // in resolution order
	paths []graph.Path
}

func place(topo topology.Hosted, seed int64, count int, tr *tracer, parent timer, r *result) (placement, error) {
	var pl placement
	topo.Rand().Seed(seed)
	sp := tr.begin("topology.addhosts", parent)
	hosts := topo.AddHosts(2 * count)
	r.layer["topology.addhosts_s"] += tr.end(sp).Seconds()

	g := topo.Topology()
	rng := topo.Rand()
	pl.pairs = make([]pair, count)
	for i := range pl.pairs {
		src := hosts[i]
		dst := hosts[rng.Intn(len(hosts))]
		for dst == src {
			dst = hosts[rng.Intn(len(hosts))]
		}
		pl.pairs[i] = pair{idx: i, src: src, dst: dst}
	}
	sort.SliceStable(pl.pairs, func(a, b int) bool {
		return g.HostRouter(pl.pairs[a].src) < g.HostRouter(pl.pairs[b].src)
	})

	mem := memProbe{tr.on}
	before := mem.alloc()
	sp = tr.begin("graph.resolve", parent)
	res := graph.NewResolver(g, resolverCache)
	pl.paths = make([]graph.Path, count)
	for i, p := range pl.pairs {
		r.ops++
		var c0 time.Time
		if tr.on {
			c0 = time.Now()
		}
		path, err := res.HostPath(p.src, p.dst)
		if tr.on {
			r.resolveUs = append(r.resolveUs, float64(time.Since(c0).Nanoseconds())/1e3)
		}
		if err != nil {
			tr.end(sp)
			return pl, fmt.Errorf("placing session %d: %w", p.idx, err)
		}
		pl.paths[i] = path
	}
	l := r.layer
	l["graph.resolve_s"] += tr.end(sp).Seconds()
	l["graph.alloc_mb"] += mb(mem.alloc() - before)
	l["graph.resolve_calls"] += float64(count)

	srcRouters := make(map[graph.NodeID]bool)
	for i, p := range pl.pairs {
		srcRouters[g.HostRouter(p.src)] = true
		l["graph.path_hops_mean"] += float64(len(pl.paths[i])) // divided by the calls in iterate
	}
	l["graph.src_routers"] += float64(len(srcRouters))
	l["topology.routers"] = float64(len(g.Routers()))
	l["topology.links"] = float64(g.NumLinks())
	return pl, nil
}

// runSim executes one simulator instance: generate, place, register,
// schedule the burst, Run, Validate, then the churn epochs (each a Run and a
// Validate).
func runSim(sp simSpec, seed int64, shards int, tr *tracer, root timer, r *result) error {
	t0 := time.Now()
	mem := memProbe{tr.on}
	l := r.layer

	s := tr.begin("topology.generate", root)
	topo, hierarchy, err := sp.topo()
	l["topology.generate_s"] += tr.end(s).Seconds()
	if err != nil {
		return fmt.Errorf("generating topology: %w", err)
	}
	g := topo.Topology()
	total := sp.sessions + sp.epochs*sp.churn
	pl, err := place(topo, seed, total, tr, root, r)
	if err != nil {
		return err
	}

	cfg := network.DefaultConfig()
	cfg.IncrementalOracle = true
	cfg.Hierarchy = hierarchy
	she := sim.NewSharded(shards)
	net := network.NewSharded(g, she, cfg)

	s = tr.begin("network.register", root)
	sessions := make([]*network.Session, total)
	for i, p := range pl.pairs {
		ss, err := net.NewSession(p.src, p.dst, pl.paths[i])
		if err != nil {
			tr.end(s)
			return fmt.Errorf("registering session %d: %w", p.idx, err)
		}
		sessions[p.idx] = ss
	}
	l["network.register_s"] += tr.end(s).Seconds()

	rng := rand.New(rand.NewSource(seed + 7))
	demand := trace.MixedDemands(cappedShare, 1, 100)
	s = tr.begin("network.schedule", root)
	for _, ev := range trace.Joins(0, sp.sessions, 0, burstWindow, demand, rng) {
		net.ScheduleJoin(sessions[ev.Session], ev.At, ev.Demand)
	}
	l["network.schedule_s"] += tr.end(s).Seconds()
	r.setup += time.Since(t0)

	// step runs to quiescence from virtual time start and validates.
	step := func(parent timer, start sim.Time) error {
		a := mem.alloc()
		s := tr.begin("sim.run", parent)
		q := net.Run()
		d := tr.end(s)
		r.ops++
		l["sim.alloc_bytes_per_event"] += float64(mem.alloc() - a) // divided by the events in iterate
		r.converge += d
		r.runMs = append(r.runMs, float64(d.Nanoseconds())/1e6)
		if q > start {
			r.sim.Busy += q - start
		}
		a = mem.alloc()
		s = tr.begin("waterfill.validate", parent)
		err := net.Validate()
		d = tr.end(s)
		r.ops++
		l["waterfill.alloc_mb"] += mb(mem.alloc() - a)
		r.validate += d
		r.validateMs = append(r.validateMs, float64(d.Nanoseconds())/1e6)
		return err
	}
	if err := step(root, 0); err != nil {
		return fmt.Errorf("validating the join burst: %w", err)
	}
	for _, ss := range sessions[:sp.sessions] {
		r.settle = append(r.settle, float64(ss.SettlingTime()))
	}
	if sp.epochs > 0 {
		ep := tr.begin("bench.epochs", root)
		err := runEpochs(sp, g, net, she, sessions, rng, demand, tr, ep, step)
		tr.end(ep)
		if err != nil {
			return err
		}
	}

	st := net.Stats()
	r.packets += st.Total()
	r.sessions += total
	for i := range r.sim.Pkts {
		r.sim.Pkts[i] += st.ByType(core.PacketType(i + 1))
	}
	r.sim.Events += she.Events()
	r.sim.Migrations += net.Migrations()
	r.sim.ReconfigPkts += net.ReconfigPackets()
	inc, ok := net.OracleStats()
	if !ok {
		return fmt.Errorf("incremental oracle not active")
	}
	r.sim.FullSolves += inc.FullSolves
	r.sim.DeltaSolves += inc.DeltaSolves
	r.sim.Fallbacks += inc.Fallbacks
	l["sim.shards"] = float64(she.Shards())
	l["sim.lookahead_us"] = float64(she.Lookahead().Nanoseconds()) / 1e3
	return nil
}

// runEpochs drives the churn epochs: each one fails a random router link
// that carries traffic at the epoch start and restores it failFor later, while churn sessions join from the pre-placed pool, churn leave
// and churn change demand; then Run and Validate.
func runEpochs(sp simSpec, g *graph.Graph, net *network.Network, she *sim.ShardedEngine,
	sessions []*network.Session, rng *rand.Rand, demand trace.DemandFn,
	tr *tracer, parent timer, step func(timer, sim.Time) error) error {
	active := make([]int, sp.sessions)
	for i := range active {
		active[i] = i
	}
	for epoch := 1; epoch <= sp.epochs; epoch++ {
		start := she.Now() + epochGap
		s := tr.begin("network.schedule", parent)
		if l, ok := randomLoadedLink(g, sessions, active, rng); ok {
			net.ScheduleLinkFail(start, l, g.LinkReverse(l))
			net.ScheduleLinkRestore(start+failFor, l, g.LinkReverse(l))
		}
		first := sp.sessions + (epoch-1)*sp.churn
		for _, ev := range trace.Joins(first, sp.churn, start, burstWindow, demand, rng) {
			net.ScheduleJoin(sessions[ev.Session], ev.At, ev.Demand)
		}
		leavers := trace.Sample(active, sp.churn, rng)
		active = without(active, leavers)
		for _, ev := range trace.Leaves(leavers, start, burstWindow, rng) {
			net.ScheduleLeave(sessions[ev.Session], ev.At)
		}
		changers := trace.Sample(active, sp.churn, rng)
		for _, ev := range trace.Changes(changers, start, burstWindow, demand, rng) {
			net.ScheduleChange(sessions[ev.Session], ev.At, ev.Demand)
		}
		for i := first; i < first+sp.churn; i++ {
			active = append(active, i)
		}
		tr.end(s)
		if err := step(parent, start); err != nil {
			return fmt.Errorf("validating epoch %d: %w", epoch, err)
		}
	}
	return nil
}

// randomLoadedLink returns a router link drawn uniformly from the up links
// that carry at least one active session.
func randomLoadedLink(g *graph.Graph, sessions []*network.Session, active []int, rng *rand.Rand) (graph.LinkID, bool) {
	used := make(map[graph.LinkID]bool)
	for _, i := range active {
		cur := sessions[i].Current()
		if !cur.Active() || len(cur.Path) < 3 {
			continue
		}
		for _, l := range cur.Path[1 : len(cur.Path)-1] {
			if g.LinkUp(l) {
				used[l] = true
			}
		}
	}
	if len(used) == 0 {
		return graph.NoLink, false
	}
	links := make([]graph.LinkID, 0, len(used))
	for l := range used {
		links = append(links, l)
	}
	sort.Slice(links, func(a, b int) bool { return links[a] < links[b] })
	return links[rng.Intn(len(links))], true
}

// without returns sorted minus the sorted values of drop.
func without(sorted, drop []int) []int {
	out := sorted[:0:0]
	j := 0
	for _, v := range sorted {
		for j < len(drop) && drop[j] < v {
			j++
		}
		if j < len(drop) && drop[j] == v {
			continue
		}
		out = append(out, v)
	}
	return out
}

// liveSpec sizes the live-runtime workload.
type liveSpec struct {
	name, why  string
	instances  int
	sessions   int // per instance
	generators int // closed-loop join goroutines
}

func liveWorkload(ls liveSpec) workload {
	return workload{
		name: ls.name, why: ls.why,
		params: map[string]any{
			"topology": topology.Small.Name + "/LAN", "instances": ls.instances,
			"sessions_per_instance": ls.sessions, "generators": ls.generators,
			"capped_demand_share": cappedShare, "path_policy": "pinned", "fail_restore_cycles": 1,
		},
		run: func(seed int64, _ int, tr *tracer) (result, error) {
			return iterate(tr, ls.instances, func(j int, root timer, r *result) error {
				return runLive(ls, instanceSeed(seed, ls.instances, j), tr, root, r)
			})
		},
	}
}

// runLive executes one live-runtime instance: place sessions, then a
// closed-loop join storm from the generator goroutines, WaitQuiescent, one
// fail → WaitQuiescent → restore → WaitQuiescent cycle on the most loaded
// router link that has a detour, and Validate.
func runLive(ls liveSpec, seed int64, tr *tracer, root timer, r *result) error {
	t0 := time.Now()
	l := r.layer
	s := tr.begin("topology.generate", root)
	topo, err := topology.Generate(topology.Small, topology.LAN, topologySeed)
	l["topology.generate_s"] += tr.end(s).Seconds()
	if err != nil {
		return fmt.Errorf("generating topology: %w", err)
	}
	g := topo.Graph
	pl, err := place(topo, seed, ls.sessions, tr, root, r)
	if err != nil {
		return err
	}

	rt := live.New(g)
	defer rt.Close()
	s = tr.begin("live.newsession", root)
	sessions := make([]*live.Session, ls.sessions)
	for i, p := range pl.pairs {
		ss, err := rt.NewSession(pl.paths[i])
		if err != nil {
			tr.end(s)
			return fmt.Errorf("registering session %d: %w", p.idx, err)
		}
		sessions[p.idx] = ss
	}
	l["live.newsession_s"] += tr.end(s).Seconds()
	rng := rand.New(rand.NewSource(seed + 7))
	demand := trace.MixedDemands(cappedShare, 1, 100)
	demands := make([]rate.Rate, ls.sessions)
	for i := range demands {
		demands[i] = demand(rng)
	}
	fail := mostLoadedDetourLink(g, pl.paths)
	if fail == graph.NoLink {
		return fmt.Errorf("no router link with a detour to fail")
	}
	r.setup += time.Since(t0)

	c0 := time.Now()
	s = tr.begin("live.join", root)
	var wg sync.WaitGroup
	for k := 0; k < ls.generators; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			for i := k; i < ls.sessions; i += ls.generators {
				sessions[i].Join(demands[i])
			}
		}(k)
	}
	wg.Wait()
	l["live.join_s"] += tr.end(s).Seconds()

	wait := func() {
		s := tr.begin("live.wait", root)
		rt.WaitQuiescent()
		l["live.wait_s"] += tr.end(s).Seconds()
		r.ops++
	}
	wait()
	s = tr.begin("live.fail", root)
	rt.FailLinks(fail, g.LinkReverse(fail))
	l["live.fail_restore_s"] += tr.end(s).Seconds()
	wait()
	s = tr.begin("live.restore", root)
	rt.RestoreLinks(fail, g.LinkReverse(fail))
	l["live.fail_restore_s"] += tr.end(s).Seconds()
	wait()
	r.converge += time.Since(c0)

	s = tr.begin("live.validate", root)
	err = rt.Validate()
	d := tr.end(s)
	r.validate += d
	l["live.validate_s"] += d.Seconds()
	r.ops++
	if err != nil {
		return fmt.Errorf("validating the live runtime: %w", err)
	}
	var pkts uint64
	for _, lc := range rt.LinkPackets() {
		pkts += lc.Packets
	}
	r.packets += pkts
	r.sessions += ls.sessions
	l["live.pkts"] += float64(pkts)
	l["live.migrations"] += float64(rt.Migrations())
	return nil
}

// mostLoadedDetourLink returns the router-to-router link the most paths
// cross (lowest ID on ties) among those whose failure leaves a detour
// between their two routers, so the failure migrates sessions rather than
// stranding them. In a transit-stub topology the most loaded links are often
// a stub's only uplink.
func mostLoadedDetourLink(g *graph.Graph, paths []graph.Path) graph.LinkID {
	load := make(map[graph.LinkID]int)
	for _, p := range paths {
		for _, l := range p[1 : len(p)-1] {
			load[l]++
		}
	}
	links := make([]graph.LinkID, 0, len(load))
	for l := range load {
		links = append(links, l)
	}
	sort.Slice(links, func(a, b int) bool {
		if load[links[a]] != load[links[b]] {
			return load[links[a]] > load[links[b]]
		}
		return links[a] < links[b]
	})
	for _, l := range links {
		rev := g.LinkReverse(l)
		g.FailLink(l)
		g.FailLink(rev)
		_, err := graph.NewResolver(g, 1).RouterPath(g.Link(l).From, g.Link(l).To)
		g.RestoreLink(l)
		g.RestoreLink(rev)
		if err == nil {
			return l
		}
	}
	return graph.NoLink
}
