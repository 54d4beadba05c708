package graph_test

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"bneck/internal/graph"
	"bneck/internal/topology"
)

// refTree is an eager BFS from one router: every router reachable over up
// links, each with the link it was first discovered over, in FIFO order with
// ties broken by link insertion order. It is the specification the lazy
// Resolver must reproduce path for path.
type refTree struct {
	src    graph.NodeID
	parent []graph.LinkID
}

func newRefTree(g *graph.Graph, src graph.NodeID) refTree {
	parent := make([]graph.LinkID, g.NumNodes())
	for i := range parent {
		parent[i] = graph.NoLink
	}
	visited := make([]bool, g.NumNodes())
	visited[src] = true
	queue := []graph.NodeID{src}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		for _, lid := range g.Out(n) {
			l := g.Link(lid)
			if l.Failed || visited[l.To] || g.Node(l.To).Kind != graph.Router {
				continue
			}
			visited[l.To] = true
			parent[l.To] = lid
			queue = append(queue, l.To)
		}
	}
	return refTree{src: src, parent: parent}
}

func (t refTree) path(g *graph.Graph, dst graph.NodeID) (graph.Path, error) {
	if dst == t.src {
		return graph.Path{}, nil
	}
	if t.parent[dst] == graph.NoLink {
		return nil, fmt.Errorf("graph: no path from router %d to router %d", t.src, dst)
	}
	var rev graph.Path
	for n := dst; n != t.src; n = g.Link(t.parent[n]).From {
		rev = append(rev, t.parent[n])
	}
	slices.Reverse(rev)
	return rev, nil
}

// routerLinks returns the directed router-to-router links of g.
func routerLinks(g *graph.Graph) []graph.LinkID {
	var out []graph.LinkID
	for _, r := range g.Routers() {
		for _, l := range g.Out(r) {
			if g.Node(g.LinkTo(l)).Kind == graph.Router {
				out = append(out, l)
			}
		}
	}
	return out
}

// TestResolverMatchesEagerBFS compares every RouterPath of the lazy,
// resumable Resolver with the eager reference BFS, at several cache sizes,
// across rounds of random link failures and restorations. Each round
// queries a mix of new and earlier sources in shuffled order, so trees are
// evicted, resumed part-way and restarted after mutations, and it cuts a few
// routers off entirely so some destinations are unreachable.
func TestResolverMatchesEagerBFS(t *testing.T) {
	params := []topology.InternetParams{topology.InternetMetro}
	if !testing.Short() {
		params = append(params, topology.InternetGlobal)
	}
	for _, p := range params {
		topo, err := topology.GenerateInternet(p, 7)
		if err != nil {
			t.Fatal(err)
		}
		g := topo.Graph
		for _, cacheSize := range []int{1, 16, 256} {
			t.Run(fmt.Sprintf("%s/cache%d", p.Name, cacheSize), func(t *testing.T) {
				checkAgainstEager(t, g, cacheSize)
			})
		}
	}
}

func checkAgainstEager(t *testing.T, g *graph.Graph, cacheSize int) {
	const (
		rounds       = 6
		sourcesRound = 40
		dstsPerSrc   = 60
	)
	rng := rand.New(rand.NewSource(int64(cacheSize)))
	routers := g.Routers()
	links := routerLinks(g)
	res := graph.NewResolver(g, cacheSize)
	var sources []graph.NodeID // every source queried so far
	var failed []graph.LinkID
	checked, unreachable := 0, 0
	for round := 0; round < rounds; round++ {
		// Restore about half of the failed links, fail 1% of the router
		// links, and cut two routers off completely.
		kept := failed[:0]
		for _, l := range failed {
			if rng.Intn(2) == 0 {
				g.RestoreLink(l)
			} else {
				kept = append(kept, l)
			}
		}
		failed = kept
		fail := func(l graph.LinkID) {
			if g.LinkUp(l) {
				g.FailLink(l)
				failed = append(failed, l)
			}
		}
		for i := 0; i < len(links)/100; i++ {
			fail(links[rng.Intn(len(links))])
		}
		var cut []graph.NodeID
		for i := 0; i < 2; i++ {
			r := routers[rng.Intn(len(routers))]
			cut = append(cut, r)
			for _, l := range g.Out(r) {
				fail(l)
				fail(g.LinkReverse(l))
			}
		}

		// Half the sources are earlier ones (a cut router among them), the
		// rest new.
		srcs := []graph.NodeID{cut[0]}
		for len(srcs) < sourcesRound {
			if len(sources) > 0 && rng.Intn(2) == 0 {
				srcs = append(srcs, sources[rng.Intn(len(sources))])
			} else {
				srcs = append(srcs, routers[rng.Intn(len(routers))])
			}
		}
		sources = append(sources, srcs...)
		type query struct{ src, dst graph.NodeID }
		var queries []query
		ref := make(map[graph.NodeID]refTree)
		for _, s := range srcs {
			ref[s] = newRefTree(g, s)
			queries = append(queries, query{s, cut[1]}, query{s, s})
			for i := 2; i < dstsPerSrc; i++ {
				queries = append(queries, query{s, routers[rng.Intn(len(routers))]})
			}
		}
		rng.Shuffle(len(queries), func(i, j int) { queries[i], queries[j] = queries[j], queries[i] })
		for _, q := range queries {
			got, gotErr := res.RouterPath(q.src, q.dst)
			want, wantErr := ref[q.src].path(g, q.dst)
			if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) || !slices.Equal(got, want) {
				t.Fatalf("round %d: RouterPath(%d, %d) = %v, %v; eager BFS gives %v, %v",
					round, q.src, q.dst, got, gotErr, want, wantErr)
			}
			if wantErr != nil {
				unreachable++
			}
			checked++
		}
	}
	if unreachable == 0 || unreachable == checked {
		t.Fatalf("%d of %d queries unreachable; want some of each", unreachable, checked)
	}
	for _, l := range failed {
		g.RestoreLink(l)
	}
}

// TestResolverAllocations pins the resolver's allocation profile: a warm
// query on a cached source allocates only the returned path, and a cold
// source on a full cache reuses the evicted tree's arrays instead of
// allocating anything sized by the graph.
func TestResolverAllocations(t *testing.T) {
	topo, err := topology.GenerateInternet(topology.InternetMetro, 5)
	if err != nil {
		t.Fatal(err)
	}
	g := topo.Graph
	hosts := topo.AddHosts(2)
	routers := g.Routers()
	res := graph.NewResolver(g, 2)
	far := routers[len(routers)-1]

	if _, err := res.HostPath(hosts[0], hosts[1]); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() { _, _ = res.HostPath(hosts[0], hosts[1]) }); n != 1 {
		t.Errorf("warm HostPath: %v allocations, want 1 (the path)", n)
	}
	if _, err := res.RouterPath(routers[0], far); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() { _, _ = res.RouterPath(routers[0], far) }); n != 1 {
		t.Errorf("warm RouterPath: %v allocations, want 1 (the path)", n)
	}

	// Three sources round-robin over two cache slots: every query misses
	// and evicts.
	srcs := []graph.NodeID{routers[1], routers[2], routers[3]}
	i := 0
	cold := func() {
		i++
		if _, err := res.RouterPath(srcs[i%len(srcs)], far); err != nil {
			t.Fatal(err)
		}
	}
	for range srcs {
		cold()
	}
	if n := testing.AllocsPerRun(100, cold); n > 1 {
		t.Errorf("cold RouterPath on a full cache: %v allocations, want at most 1 (the path)", n)
	}
	const calls = 100
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range calls {
		cold()
	}
	runtime.ReadMemStats(&after)
	if perCall := (after.TotalAlloc - before.TotalAlloc) / calls; perCall >= uint64(len(routers)) {
		t.Errorf("cold RouterPath on a full cache allocates %d bytes per call, want fewer than one per router (%d)",
			perCall, len(routers))
	}
}
