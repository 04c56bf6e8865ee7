// Package topo models the connectivity structure of an offchain network:
// an undirected multigraph-free graph of nodes joined by payment
// channels. Channel balances live elsewhere (package pcn); topo holds
// only what the paper assumes every node knows locally — the topology
// without capacity information (§3.1 "Locally available topology").
//
// The package also provides the topology generators used in the paper's
// evaluation: Watts–Strogatz small-world graphs for the testbed (§5.2)
// and Barabási–Albert scale-free graphs standing in for the Ripple and
// Lightning crawls (§4.1), plus snapshot ingestion (snapshot.go) and an
// edge-list serialisation so real crawl data can be substituted.
//
// # Representation
//
// A Graph has two phases. Its owner builds it with New and AddChannel
// (a map dedupes channels and answers ChannelIndex while building), then
// freezes it once; after that it is read-only, and AddChannel returns an
// error. pcn.New freezes the graph it is handed, so no graph grows under
// a network, a router or a search scratch. Reading adjacency (Neighbors,
// AdjacencyView, Degree) freezes a graph still being built — safe, since
// a graph being built has a single owner. The generators and loaders
// return their graphs unfrozen, so a simulator can add the latent
// channels a run may open before it funds the network.
//
// A frozen graph stores adjacency in compressed sparse row (CSR) form:
// one flat neighbor arena shared by all nodes, sliced per node by an
// offset array, with a parallel arena of channel indices — three slabs
// total, whatever the node count, instead of one heap object per node.
// The arena lists each node's channels in ascending channel-index order
// (BFS tie-breaking, and therefore every seeded experiment, depends on
// that order), and a second, neighbor-sorted copy serves O(log degree)
// channel lookup by binary search — no map on the read path. Concurrent
// reads of a frozen graph are safe.
package topo

import "fmt"

// NodeID identifies a node. IDs are dense indices in [0, NumNodes);
// external string keys (LN pubkeys, Ripple addresses) map to dense IDs
// through an Interner.
type NodeID int32

// Edge is an undirected payment channel between two nodes. The
// constructor canonicalises so A < B.
type Edge struct {
	A, B NodeID
}

// NewEdge returns the canonical Edge with endpoints a and b.
func NewEdge(a, b NodeID) Edge {
	if a > b {
		a, b = b, a
	}
	return Edge{A: a, B: b}
}

// csr is a frozen graph's adjacency in compressed-sparse-row form.
type csr struct {
	off     []int32  // len n+1; node u's arena span is [off[u], off[u+1])
	arena   []NodeID // neighbors, ascending channel index per node
	arenaCh []int32  // channel index parallel to arena
	sorted  []NodeID // neighbors, ascending per node (binary-search domain)
	sortCh  []int32  // channel index parallel to sorted
}

// find returns the channel index joining u and v, or -1: a binary
// search over u's sorted neighbor run.
func (c *csr) find(u, v NodeID) int {
	lo, hi := int(c.off[u]), int(c.off[u+1])
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if c.sorted[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < int(c.off[u+1]) && c.sorted[lo] == v {
		return int(c.sortCh[lo])
	}
	return -1
}

// Graph is an undirected graph with stable channel indices, built once
// and then frozen into CSR form (see the package comment). The zero
// value is an empty graph; use New to pre-size.
type Graph struct {
	n     int
	edges []Edge
	index map[Edge]int32 // build phase only; nil once frozen
	adj   *csr           // nil until Freeze
}

// New returns an empty graph with n nodes and no channels, open for
// AddChannel.
func New(n int) *Graph {
	return &Graph{n: n, index: make(map[Edge]int32)}
}

// NumNodes returns the number of nodes.
func (g *Graph) NumNodes() int { return g.n }

// NumChannels returns the number of undirected channels.
func (g *Graph) NumChannels() int { return len(g.edges) }

// AddChannel inserts an undirected channel between a and b, returning
// its stable channel index. Adding an existing channel returns the
// existing index; self-loops are rejected, and so is any channel once
// the graph is frozen.
func (g *Graph) AddChannel(a, b NodeID) (int, error) {
	if g.adj != nil {
		return -1, fmt.Errorf("topo: channel %d-%d added to a frozen graph", a, b)
	}
	if a == b {
		return -1, fmt.Errorf("topo: self-loop on node %d", a)
	}
	if int(a) < 0 || int(a) >= g.n || int(b) < 0 || int(b) >= g.n {
		return -1, fmt.Errorf("topo: node out of range: %d-%d (n=%d)", a, b, g.n)
	}
	e := NewEdge(a, b)
	if idx, ok := g.index[e]; ok {
		return int(idx), nil
	}
	idx := len(g.edges)
	g.edges = append(g.edges, e)
	g.index[e] = int32(idx)
	return idx, nil
}

// MustAddChannel is AddChannel for construction code where the inputs
// are known valid; it panics on error.
func (g *Graph) MustAddChannel(a, b NodeID) int {
	idx, err := g.AddChannel(a, b)
	if err != nil {
		panic(err)
	}
	return idx
}

// Freeze ends the build phase: it lays the channels out in CSR form and
// drops the build map. Each node's arena span lists its channels in
// ascending index order — one counting pass over the channel list —
// and its sorted span is filled by walking the nodes in ascending order,
// so neither needs a sort. Freezing a frozen graph does nothing.
func (g *Graph) Freeze() {
	if g.adj != nil {
		return
	}
	total := 2 * len(g.edges)
	c := &csr{
		off:     make([]int32, g.n+1),
		arena:   make([]NodeID, total),
		arenaCh: make([]int32, total),
		sorted:  make([]NodeID, total),
		sortCh:  make([]int32, total),
	}
	for _, e := range g.edges {
		c.off[e.A+1]++
		c.off[e.B+1]++
	}
	for u := 0; u < g.n; u++ {
		c.off[u+1] += c.off[u]
	}
	next := make([]int32, g.n)
	copy(next, c.off)
	for i, e := range g.edges {
		c.arena[next[e.A]], c.arenaCh[next[e.A]] = e.B, int32(i)
		c.arena[next[e.B]], c.arenaCh[next[e.B]] = e.A, int32(i)
		next[e.A]++
		next[e.B]++
	}
	// v's channels land in each neighbor's sorted span in ascending v.
	copy(next, c.off)
	for v := 0; v < g.n; v++ {
		for i := c.off[v]; i < c.off[v+1]; i++ {
			u := c.arena[i]
			c.sorted[next[u]], c.sortCh[next[u]] = NodeID(v), c.arenaCh[i]
			next[u]++
		}
	}
	g.adj, g.index = c, nil
}

// frozen returns the CSR adjacency, freezing a graph still being built.
func (g *Graph) frozen() *csr {
	if g.adj == nil {
		g.Freeze()
	}
	return g.adj
}

// HasChannel reports whether a channel joins a and b.
func (g *Graph) HasChannel(a, b NodeID) bool {
	return g.ChannelIndex(a, b) >= 0
}

// ChannelIndex returns the stable index of the channel joining a and b,
// or -1 if none exists: a map lookup while building, a binary search
// over a's sorted neighbor run once frozen.
func (g *Graph) ChannelIndex(a, b NodeID) int {
	if int(a) < 0 || int(a) >= g.n || int(b) < 0 || int(b) >= g.n {
		return -1
	}
	if g.adj != nil {
		return g.adj.find(a, b)
	}
	if idx, ok := g.index[NewEdge(a, b)]; ok {
		return int(idx)
	}
	return -1
}

// Channel returns the endpoints of channel idx.
func (g *Graph) Channel(idx int) Edge { return g.edges[idx] }

// Channels returns the channel list. The caller must not modify it.
func (g *Graph) Channels() []Edge { return g.edges }

// Neighbors returns the adjacency list of u in ascending channel-index
// order — a view into the CSR arena the caller must not modify. It
// freezes a graph still being built.
func (g *Graph) Neighbors(u NodeID) []NodeID {
	c := g.frozen()
	return c.arena[c.off[u]:c.off[u+1]]
}

// AdjacencyView returns the raw CSR slabs in one call: off has length
// NumNodes()+1, and node u's neighbors are nbrs[off[u]:off[u+1]] in
// ascending channel-index order with chans parallel (chans[i] is the
// channel joining u and nbrs[i]). Hot search loops index the slabs
// directly. The caller must not modify them; like Neighbors, it
// freezes a graph still being built.
func (g *Graph) AdjacencyView() (off []int32, nbrs []NodeID, chans []int32) {
	c := g.frozen()
	return c.off, c.arena, c.arenaCh
}

// Degree returns the number of channels incident to u. It freezes a
// graph still being built.
func (g *Graph) Degree(u NodeID) int {
	c := g.frozen()
	return int(c.off[u+1] - c.off[u])
}

// Components labels every node with its connected component in one
// breadth-first pass: labels count up from 0 in the order of each
// component's lowest node, so two nodes share a label exactly when a
// path joins them. It freezes a graph still being built.
func (g *Graph) Components() []int {
	off, nbrs, _ := g.AdjacencyView()
	comp := make([]int, g.NumNodes())
	for i := range comp {
		comp[i] = -1
	}
	queue := make([]NodeID, 0, len(comp))
	id := 0
	for s := range comp {
		if comp[s] != -1 {
			continue
		}
		comp[s] = id
		queue = append(queue[:0], NodeID(s))
		for h := 0; h < len(queue); h++ {
			u := queue[h]
			for _, v := range nbrs[off[u]:off[u+1]] {
				if comp[v] == -1 {
					comp[v] = id
					queue = append(queue, v)
				}
			}
		}
		id++
	}
	return comp
}
