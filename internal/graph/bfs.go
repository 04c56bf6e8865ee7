// Package graph implements the path-finding primitives the routing
// schemes are built from: the shortest paths a breadth-first search
// returns, under arbitrary usability predicates, Yen's k-shortest
// loopless paths (used for mice routing tables), successive edge-disjoint
// shortest paths (used by the Spider baseline), BFS spanning trees (used
// by SpeedyMurmurs), and a classic Edmonds–Karp max-flow (the reference
// point for the paper's modified, probe-bounded variant implemented in
// package core).
//
// All algorithms operate on a *topo.Graph plus, where relevant, a
// directed usability/capacity oracle, so they can run over the true
// balances (simulator internals) or over a sender's partial probed
// knowledge (the Flash router) without modification.
package graph

import (
	"repro/internal/topo"
)

// Usable reports whether the directed hop u→v over channel ch may be
// used. The search hands it the channel index the CSR traversal already
// holds, so a predicate keyed by channel needs no lookup of its own. A
// nil Usable means every topological edge is usable. It must be a pure
// function of the hop while a search runs: a search may ask about a hop
// more than once, or about one that the answer then does not use.
type Usable func(u, v topo.NodeID, ch int32) bool

// DirEdge is a directed hop over an undirected channel.
type DirEdge struct {
	U, V topo.NodeID
}

// Reverse returns the opposite direction of the hop.
func (e DirEdge) Reverse() DirEdge { return DirEdge{U: e.V, V: e.U} }

// PathEdges expands a node path into its directed hops.
func PathEdges(path []topo.NodeID) []DirEdge {
	if len(path) < 2 {
		return nil
	}
	edges := make([]DirEdge, len(path)-1)
	for i := 0; i+1 < len(path); i++ {
		edges[i] = DirEdge{U: path[i], V: path[i+1]}
	}
	return edges
}

// ShortestPath returns a minimum-hop path from s to t whose every
// directed hop satisfies usable, or nil if t is unreachable. Neighbour
// order breaks ties, making results deterministic for a fixed graph.
//
// The search runs on a Scratch from the package's free list, so the only
// allocation is the returned path itself; callers on a hot loop that can
// reuse the result buffer too should hold their own Scratch and call its
// ShortestPath.
func ShortestPath(g *topo.Graph, s, t topo.NodeID, usable Usable) []topo.NodeID {
	sc := AcquireScratch()
	p := sc.ShortestPath(g, s, t, usable)
	if p != nil {
		p = appendCopy(p)
	}
	ReleaseScratch(sc)
	return p
}

// SpanningTree returns the BFS spanning tree rooted at root as a
// parent array and a depth array, from one pass: parent[root] = root
// and depth[root] = 0; an unreachable v has parent[v] = -1 and
// depth[v] = -1. The SpeedyMurmurs baseline assigns its prefix
// embeddings over such trees.
func SpanningTree(g *topo.Graph, root topo.NodeID) (parent []topo.NodeID, depth []int) {
	parent = make([]topo.NodeID, g.NumNodes())
	depth = make([]int, g.NumNodes())
	for i := range parent {
		parent[i] = -1
		depth[i] = -1
	}
	parent[root] = root
	depth[root] = 0
	queue := []topo.NodeID{root}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range g.Neighbors(u) {
			if parent[v] == -1 {
				parent[v] = u
				depth[v] = depth[u] + 1
				queue = append(queue, v)
			}
		}
	}
	return parent, depth
}

// EdgeDisjointPaths returns up to k minimum-hop hop paths from s to t
// that share no channel (in either direction), found by successive BFS
// with used channels removed — the path set the Spider baseline routes
// over. Used channels live in the scratch ban-set keyed by channel index
// (one flat stamp array instead of a map allocated per call), banned by
// the channels the paths carry.
func EdgeDisjointPaths(g *topo.Graph, s, t topo.NodeID, k int) []topo.Path {
	sc := AcquireScratch()
	defer ReleaseScratch(sc)
	sc.ensureBans(g)
	var paths []topo.Path
	for len(paths) < k {
		p := sc.found(g, sc.search(g, s, t, nil, true, 0))
		if p.IsZero() {
			break
		}
		p, _ = p.AppendTo(nil)
		for i := range p.Hops() {
			sc.banChannel(p.Chan(i))
		}
		paths = append(paths, p)
	}
	return paths
}
