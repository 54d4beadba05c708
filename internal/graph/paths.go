package graph

import (
	"fmt"
)

// Path is an ordered list of directed link IDs from a source host to a
// destination host (the paper's π(s)).
type Path []LinkID

// Resolver computes shortest (minimum hop) host-to-host paths, the paper's
// session path policy. Interior nodes are always routers: BFS never expands
// through a host.
//
// Paths come from per-source BFS trees over a router-only adjacency in CSR
// form: dense router indexes, and per router the offsets, targets and IDs of
// its links to other routers, in link insertion order. The adjacency is built
// once and rebuilt only when a router or a router-to-router link is added,
// which also drops every cached tree; attaching hosts keeps both. Link up/down
// state is read live.
//
// Trees are lazy and resumable. A tree is expanded in FIFO order only until
// the queried destination is discovered, and keeps its unexpanded frontier,
// so a later query from the same source resumes where the last one stopped.
// A router's parent is fixed when it is first discovered and ties are broken
// by link insertion order, so every path, and every "no path" error, is the
// one a full BFS would give. Trees are cached per source router with an LRU
// policy, and an evicted tree's arrays are reused for the next source. Each
// tree is stamped with the graph generation: after a mutation (capacity
// change, link fail/restore) it restarts from its source on its next use, so
// only sources actually re-resolved pay. Resolving sessions grouped by source
// router (the experiment harness sorts its workloads accordingly) keeps each
// source's tree cached while its sessions resume it. A Resolver is not safe
// for concurrent use.
type Resolver struct {
	g        *Graph
	capacity int
	cache    map[NodeID]*bfsTree
	order    []NodeID // LRU order, least recent first

	// Router adjacency, current for the graph's first nodes nodes and links
	// links. dense maps a NodeID to its dense router index, -1 for a host;
	// only routers are looked up, so hosts added later need no entry.
	nodes, links int
	dense        []int32
	off          []int32  // dense router i's entries are [off[i], off[i+1])
	adjTo        []int32  // dense target router of each entry
	adjLink      []LinkID // link of each entry

	queue []int32 // BFS queue scratch, shared by every expansion
}

// rootParent marks a tree's source in its parent array.
const rootParent LinkID = -1

type bfsTree struct {
	src int32 // dense index of the source router
	// gen is the graph generation the tree was started at; a later mutation
	// (capacity change, link fail/restore) makes the tree stale.
	gen uint64
	// parent[i] is the link that discovered dense router i, plus one, so 0
	// means undiscovered and a reset is a clear; the source holds rootParent.
	parent []LinkID
	// frontier holds the discovered routers not yet expanded, in FIFO order.
	frontier []int32
}

// NewResolver returns a Resolver over g caching up to cacheSize BFS trees
// (minimum 1; 128 is a good default for the paper's workloads).
func NewResolver(g *Graph, cacheSize int) *Resolver {
	if cacheSize < 1 {
		cacheSize = 1
	}
	return &Resolver{
		g:        g,
		capacity: cacheSize,
		cache:    make(map[NodeID]*bfsTree, cacheSize),
	}
}

// HostPath returns a shortest path from host src to host dst:
// [src→router, router hops..., router→dst]. It returns an error if the hosts
// coincide or no path exists.
func (r *Resolver) HostPath(src, dst NodeID) (Path, error) {
	if src == dst {
		return nil, fmt.Errorf("graph: source and destination host coincide (%d)", src)
	}
	g := r.g
	g.checkNode(src)
	g.checkNode(dst)
	if g.nodes[src].Kind != Host || g.nodes[dst].Kind != Host {
		return nil, fmt.Errorf("graph: HostPath endpoints must be hosts (%d, %d)", src, dst)
	}
	up, dstUp := g.AccessLink(src), g.AccessLink(dst)
	if g.links[up].Failed {
		return nil, fmt.Errorf("graph: access link of host %d is down", src)
	}
	down := g.links[dstUp].Reverse
	if down == NoLink {
		return nil, fmt.Errorf("graph: host %d has no router→host link", dst)
	}
	if g.links[down].Failed {
		return nil, fmt.Errorf("graph: access link of host %d is down", dst)
	}
	path, err := r.routerPath(g.links[up].To, g.links[dstUp].To, 1)
	if err != nil {
		return nil, err
	}
	path[0], path[len(path)-1] = up, down
	return path, nil
}

// RouterPath returns a shortest router-level path between two routers.
func (r *Resolver) RouterPath(src, dst NodeID) (Path, error) {
	return r.routerPath(src, dst, 0)
}

// routerPath returns a shortest path between two routers with pad unset
// slots before and after its links, for HostPath's access links.
func (r *Resolver) routerPath(src, dst NodeID, pad int) (Path, error) {
	g := r.g
	g.checkNode(src)
	g.checkNode(dst)
	if g.nodes[src].Kind != Router || g.nodes[dst].Kind != Router {
		return nil, fmt.Errorf("graph: RouterPath endpoints must be routers (%d, %d)", src, dst)
	}
	if src == dst {
		return make(Path, 2*pad), nil
	}
	r.sync()
	t := r.tree(src)
	d := r.dense[dst]
	r.discover(t, d)
	if t.parent[d] == 0 {
		return nil, fmt.Errorf("graph: no path from router %d to router %d", src, dst)
	}
	// Walk back from dst to the source twice: once to size the path, once
	// to fill it.
	hops := 0
	for n := d; n != t.src; n = r.dense[g.links[t.parent[n]-1].From] {
		hops++
	}
	path := make(Path, hops+2*pad)
	i := pad + hops
	for n := d; n != t.src; {
		l := t.parent[n] - 1
		i--
		path[i] = l
		n = r.dense[g.links[l].From]
	}
	return path, nil
}

// sync brings the router adjacency up to date with the graph. Nodes and
// links are append-only, so only the ones added since the last sync are
// inspected: new hosts and host links change nothing, while a new router or
// router-to-router link rebuilds the adjacency and drops the cached trees,
// whose arrays and paths it invalidates.
func (r *Resolver) sync() {
	g := r.g
	if len(g.nodes) == r.nodes && len(g.links) == r.links {
		return
	}
	grew := false
	for _, n := range g.nodes[r.nodes:] {
		grew = grew || n.Kind == Router
	}
	for _, l := range g.links[r.links:] {
		grew = grew || g.nodes[l.From].Kind == Router && g.nodes[l.To].Kind == Router
	}
	r.nodes, r.links = len(g.nodes), len(g.links)
	if !grew {
		return
	}
	r.dense = make([]int32, r.nodes)
	routers := int32(0)
	for i, n := range g.nodes {
		r.dense[i] = -1
		if n.Kind == Router {
			r.dense[i] = routers
			routers++
		}
	}
	r.off = make([]int32, routers+1)
	r.adjTo, r.adjLink = r.adjTo[:0], r.adjLink[:0]
	for i, n := range g.nodes {
		if n.Kind != Router {
			continue
		}
		for _, lid := range g.out[i] {
			if to := r.dense[g.links[lid].To]; to >= 0 {
				r.adjTo = append(r.adjTo, to)
				r.adjLink = append(r.adjLink, lid)
			}
		}
		r.off[r.dense[i]+1] = int32(len(r.adjTo))
	}
	clear(r.cache)
	r.order = r.order[:0]
}

// tree returns the cached BFS tree rooted at router src, restarting it if
// the graph mutated since it was started. A source not in the cache gets a
// fresh tree, taking over the arrays of the least recently used one when
// the cache is full.
func (r *Resolver) tree(src NodeID) *bfsTree {
	gen := r.g.gen
	if t, ok := r.cache[src]; ok {
		if t.gen != gen {
			t.reset(r.dense[src], gen)
		}
		r.touch(src)
		return t
	}
	var t *bfsTree
	if len(r.order) >= r.capacity {
		evict := r.order[0]
		copy(r.order, r.order[1:])
		r.order = r.order[:len(r.order)-1]
		t = r.cache[evict]
		delete(r.cache, evict)
	} else {
		t = &bfsTree{parent: make([]LinkID, len(r.off)-1)}
	}
	t.reset(r.dense[src], gen)
	r.cache[src] = t
	r.order = append(r.order, src)
	return t
}

func (t *bfsTree) reset(src int32, gen uint64) {
	clear(t.parent)
	t.parent[src] = rootParent
	t.frontier = append(t.frontier[:0], src)
	t.src, t.gen = src, gen
}

func (r *Resolver) touch(src NodeID) {
	for i, n := range r.order {
		if n == src {
			copy(r.order[i:], r.order[i+1:])
			r.order[len(r.order)-1] = src
			return
		}
	}
}

// discover expands t breadth-first, skipping failed links, until dense
// router dst is discovered or the frontier runs out. It expands whole
// routers in FIFO order and keeps what is left of the frontier in t, so a
// later call resumes exactly where this one stopped.
func (r *Resolver) discover(t *bfsTree, dst int32) {
	if t.parent[dst] != 0 || len(t.frontier) == 0 {
		return
	}
	links := r.g.links
	q := append(r.queue[:0], t.frontier...)
	head := 0
	for head < len(q) && t.parent[dst] == 0 {
		n := q[head]
		head++
		for e := r.off[n]; e < r.off[n+1]; e++ {
			to, lid := r.adjTo[e], r.adjLink[e]
			if t.parent[to] != 0 || links[lid].Failed {
				continue
			}
			t.parent[to] = lid + 1
			q = append(q, to)
		}
	}
	t.frontier = append(t.frontier[:0], q[head:]...)
	r.queue = q
}

// PathNodes expands a path into its node sequence (source of the first link
// followed by the destination of every link). Useful for debugging and
// tests.
func PathNodes(g *Graph, p Path) []NodeID {
	if len(p) == 0 {
		return nil
	}
	out := make([]NodeID, 0, len(p)+1)
	out = append(out, g.Link(p[0]).From)
	for _, l := range p {
		out = append(out, g.Link(l).To)
	}
	return out
}

// ValidatePath checks that p is a connected host-to-host path in g whose
// links are all up.
func ValidatePath(g *Graph, p Path) error {
	if len(p) < 2 {
		return fmt.Errorf("graph: path too short (%d links)", len(p))
	}
	for _, l := range p {
		if g.Link(l).Failed {
			return fmt.Errorf("graph: path crosses failed link %d", l)
		}
	}
	for i := 1; i < len(p); i++ {
		prev, cur := g.Link(p[i-1]), g.Link(p[i])
		if prev.To != cur.From {
			return fmt.Errorf("graph: path disconnected at hop %d (link %d→ link %d)", i, prev.ID, cur.ID)
		}
		if g.Node(cur.From).Kind != Router {
			return fmt.Errorf("graph: interior path node %d is not a router", cur.From)
		}
	}
	if g.Node(g.Link(p[0]).From).Kind != Host {
		return fmt.Errorf("graph: path does not start at a host")
	}
	if g.Node(g.Link(p[len(p)-1]).To).Kind != Host {
		return fmt.Errorf("graph: path does not end at a host")
	}
	return nil
}
