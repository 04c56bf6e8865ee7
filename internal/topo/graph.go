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
// Graph stores adjacency in compressed sparse row (CSR) form: one flat
// neighbor arena shared by all nodes, sliced per node by an offset
// array, with a parallel arena of channel indices — three slabs total,
// whatever the node count, instead of one heap object per node. The
// arena keeps neighbors in channel-insertion order (BFS tie-breaking,
// and therefore every seeded experiment, depends on that order), and a
// second, neighbor-sorted copy serves O(log degree) channel lookup by
// binary search — no map on the read path.
//
// Because CSR is append-hostile, AddChannel stages new channels in
// small per-node pending lists and folds them into the arena in
// amortised-O(1) compactions; any read that needs contiguous adjacency
// compacts first. Concurrent reads of a quiescent (fully compacted)
// graph are lock-free and safe — the run paths (pcn.New, the snapshot
// loaders, the generators) all hand out compacted graphs. AddChannel
// itself is not safe concurrently with anything, exactly as before.
package topo

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

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

// csr is one immutable compressed-sparse-row snapshot of the adjacency
// structure. Readers obtain it through an atomic pointer, so a
// compaction publishing a new snapshot never races an in-flight read.
type csr struct {
	off     []int32  // len n+1; node u's arena span is [off[u], off[u+1])
	arena   []NodeID // neighbors, channel-insertion order per node
	arenaCh []int32  // channel index parallel to arena
	sorted  []NodeID // neighbors, ascending per node (binary-search domain)
	sortCh  []int32  // channel index parallel to sorted
}

// degree returns the number of base (compacted) neighbors of u.
func (c *csr) degree(u NodeID) int { return int(c.off[u+1] - c.off[u]) }

// find returns the channel index joining u and v in the base CSR, or
// -1: a binary search over u's sorted neighbor run.
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

// pendingHalf is one staged (not yet compacted) adjacency entry.
type pendingHalf struct {
	nbr NodeID
	ch  int32
}

// compactThreshold is the pending-channel count above which AddChannel
// folds the staged channels into the arena. Growing the base
// geometrically keeps total compaction work linear in the final channel
// count.
const compactThreshold = 64

// Graph is an undirected graph with O(log degree) channel lookup and
// stable channel indices, stored in CSR form (see the package comment).
// The zero value is an empty graph; use New to pre-size.
type Graph struct {
	edges []Edge

	base  atomic.Pointer[csr] // immutable compacted snapshot
	pendN atomic.Int32        // staged channels not yet in base

	mu       sync.Mutex // serialises compaction and pending-list access
	pend     [][]pendingHalf
	baseEdge int // channels covered by base
}

// New returns an empty graph with n nodes and no channels.
func New(n int) *Graph {
	g := &Graph{pend: make([][]pendingHalf, n)}
	g.base.Store(&csr{off: make([]int32, n+1)})
	return g
}

// NumNodes returns the number of nodes.
func (g *Graph) NumNodes() int { return len(g.pend) }

// NumChannels returns the number of undirected channels.
func (g *Graph) NumChannels() int { return len(g.edges) }

// AddChannel inserts an undirected channel between a and b, returning
// its stable channel index. Adding an existing channel returns the
// existing index; self-loops are rejected. Not safe concurrently with
// any other method.
func (g *Graph) AddChannel(a, b NodeID) (int, error) {
	if a == b {
		return -1, fmt.Errorf("topo: self-loop on node %d", a)
	}
	if int(a) < 0 || int(a) >= g.NumNodes() || int(b) < 0 || int(b) >= g.NumNodes() {
		return -1, fmt.Errorf("topo: node out of range: %d-%d (n=%d)", a, b, g.NumNodes())
	}
	if idx := g.ChannelIndex(a, b); idx >= 0 {
		return idx, nil
	}
	idx := len(g.edges)
	g.edges = append(g.edges, NewEdge(a, b))
	g.mu.Lock()
	g.pend[a] = append(g.pend[a], pendingHalf{nbr: b, ch: int32(idx)})
	g.pend[b] = append(g.pend[b], pendingHalf{nbr: a, ch: int32(idx)})
	pending := g.pendN.Add(1)
	// Compact when the staged tail outgrows the base: geometric growth,
	// so a build of m channels pays O(m) total compaction work.
	if int(pending) >= compactThreshold && int(pending)*2 >= g.baseEdge {
		g.compactLocked()
	}
	g.mu.Unlock()
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

// Compact folds all staged channels into the CSR arena so subsequent
// reads are lock-free. Construction paths (pcn.New, the generators,
// the snapshot loaders) call it once after the last AddChannel; it is
// also applied lazily by any read that needs contiguous adjacency.
func (g *Graph) Compact() {
	if g.pendN.Load() == 0 {
		return
	}
	g.mu.Lock()
	g.compactLocked()
	g.mu.Unlock()
}

// compactLocked rebuilds the CSR snapshot from the current base plus
// every pending half-edge, preserving per-node insertion order, and
// publishes it. Callers hold g.mu.
func (g *Graph) compactLocked() {
	if g.pendN.Load() == 0 {
		return
	}
	old := g.base.Load()
	n := g.NumNodes()
	total := 2 * len(g.edges)
	nc := &csr{
		off:     make([]int32, n+1),
		arena:   make([]NodeID, total),
		arenaCh: make([]int32, total),
		sorted:  make([]NodeID, total),
		sortCh:  make([]int32, total),
	}
	for u := 0; u < n; u++ {
		nc.off[u+1] = nc.off[u] + int32(old.degree(NodeID(u))+len(g.pend[u]))
	}
	for u := 0; u < n; u++ {
		lo, hi := int(nc.off[u]), int(nc.off[u+1])
		// Insertion-order arena: base span first (already in order),
		// then the staged tail in staging order.
		w := lo
		for i := old.off[u]; i < old.off[u+1]; i++ {
			nc.arena[w], nc.arenaCh[w] = old.arena[i], old.arenaCh[i]
			w++
		}
		for _, p := range g.pend[u] {
			nc.arena[w], nc.arenaCh[w] = p.nbr, p.ch
			w++
		}
		g.pend[u] = nil
		// Sorted copy: merge would do, but a per-node sort is simple and
		// runs only at compaction; neighbor IDs are unique per node.
		copy(nc.sorted[lo:hi], nc.arena[lo:hi])
		copy(nc.sortCh[lo:hi], nc.arenaCh[lo:hi])
		span := nodeSortSpan{nbr: nc.sorted[lo:hi], ch: nc.sortCh[lo:hi]}
		if !sort.IsSorted(span) {
			sort.Sort(span)
		}
	}
	g.base.Store(nc)
	g.baseEdge = len(g.edges)
	g.pendN.Store(0)
}

// nodeSortSpan sorts one node's neighbor run with its parallel channel
// indices.
type nodeSortSpan struct {
	nbr []NodeID
	ch  []int32
}

func (s nodeSortSpan) Len() int           { return len(s.nbr) }
func (s nodeSortSpan) Less(i, j int) bool { return s.nbr[i] < s.nbr[j] }
func (s nodeSortSpan) Swap(i, j int) {
	s.nbr[i], s.nbr[j] = s.nbr[j], s.nbr[i]
	s.ch[i], s.ch[j] = s.ch[j], s.ch[i]
}

// HasChannel reports whether a channel joins a and b.
func (g *Graph) HasChannel(a, b NodeID) bool {
	return g.ChannelIndex(a, b) >= 0
}

// ChannelIndex returns the stable index of the channel joining a and b,
// or -1 if none exists. On a compacted graph this is a lock-free binary
// search over a's sorted neighbor run.
func (g *Graph) ChannelIndex(a, b NodeID) int {
	if int(a) < 0 || int(a) >= g.NumNodes() || int(b) < 0 || int(b) >= g.NumNodes() {
		return -1
	}
	if idx := g.base.Load().find(a, b); idx >= 0 {
		return idx
	}
	if g.pendN.Load() == 0 {
		return -1
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	for _, p := range g.pend[a] {
		if p.nbr == b {
			return int(p.ch)
		}
	}
	return -1
}

// Channel returns the endpoints of channel idx.
func (g *Graph) Channel(idx int) Edge { return g.edges[idx] }

// Channels returns the channel list. The caller must not modify it.
func (g *Graph) Channels() []Edge { return g.edges }

// Neighbors returns the adjacency list of u in channel-insertion order
// — a view into the CSR arena. The caller must not modify the returned
// slice, and must not retain it across a later AddChannel.
func (g *Graph) Neighbors(u NodeID) []NodeID {
	if g.pendN.Load() != 0 {
		g.Compact()
	}
	c := g.base.Load()
	return c.arena[c.off[u]:c.off[u+1]]
}

// AdjacencyView returns the raw CSR slabs in one call: off has length
// NumNodes()+1, and node u's neighbors are nbrs[off[u]:off[u+1]] in
// channel-insertion order with chans parallel (chans[i] is the channel
// joining u and nbrs[i]). Hot search loops index the slabs directly,
// paying the compaction check once per traversal instead of once per
// node. The same aliasing rules as Neighbors apply to all three slices.
func (g *Graph) AdjacencyView() (off []int32, nbrs []NodeID, chans []int32) {
	if g.pendN.Load() != 0 {
		g.Compact()
	}
	c := g.base.Load()
	return c.off, c.arena, c.arenaCh
}

// Degree returns the number of channels incident to u.
func (g *Graph) Degree(u NodeID) int {
	d := g.base.Load().degree(u)
	if g.pendN.Load() != 0 {
		g.mu.Lock()
		d = g.base.Load().degree(u) + len(g.pend[u])
		g.mu.Unlock()
	}
	return d
}

// Clone returns a deep copy of the graph (compacted).
func (g *Graph) Clone() *Graph {
	g.Compact()
	old := g.base.Load()
	c := New(g.NumNodes())
	c.edges = append([]Edge(nil), g.edges...)
	c.base.Store(&csr{
		off:     append([]int32(nil), old.off...),
		arena:   append([]NodeID(nil), old.arena...),
		arenaCh: append([]int32(nil), old.arenaCh...),
		sorted:  append([]NodeID(nil), old.sorted...),
		sortCh:  append([]int32(nil), old.sortCh...),
	})
	c.baseEdge = len(c.edges)
	return c
}

// ComponentOf returns the set of nodes reachable from start, as a sorted
// slice.
func (g *Graph) ComponentOf(start NodeID) []NodeID {
	seen := make([]bool, g.NumNodes())
	queue := []NodeID{start}
	seen[start] = true
	var comp []NodeID
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		comp = append(comp, u)
		for _, v := range g.Neighbors(u) {
			if !seen[v] {
				seen[v] = true
				queue = append(queue, v)
			}
		}
	}
	sort.Slice(comp, func(i, j int) bool { return comp[i] < comp[j] })
	return comp
}

// AvgDegree returns the mean node degree (2·channels / nodes).
func (g *Graph) AvgDegree() float64 {
	if g.NumNodes() == 0 {
		return 0
	}
	return 2 * float64(g.NumChannels()) / float64(g.NumNodes())
}
