package graph

import (
	"sync"

	"repro/internal/topo"
)

// Scratch is the reusable working memory of the path searches in this
// package: BFS parent/queue buffers, epoch-stamped visited marks (a new
// search bumps the epoch instead of clearing — reset is O(1), and only
// the nodes a search actually touches are ever written), a result
// buffer, and the Yen spur ban-sets keyed by channel index. One Scratch
// amortises every per-call allocation of ShortestPath and YenKSP: a
// steady-state search with a warm Scratch allocates nothing.
//
// A Scratch is not safe for concurrent use; callers either own one per
// goroutine or draw from AcquireScratch/ReleaseScratch. Results
// returned by Scratch methods alias the scratch buffers and are valid
// only until the next search on the same Scratch — callers that retain
// a path must copy it.
type Scratch struct {
	parent []topo.NodeID
	mark   []uint8 // parent[v] is valid iff mark[v] == epoch; one byte
	epoch  uint8   // per node keeps the visited set L1-resident
	queue  []topo.NodeID
	path   []topo.NodeID

	// Yen spur state: node bans for the root prefix, directed-edge bans
	// keyed 2·channel + direction (direction 1 = higher endpoint to
	// lower, exploiting Edge canonicalisation, so no channel record is
	// ever loaded on the search path). Stamped with banEpoch so clearing
	// a spur's bans is a single increment; one byte per slot keeps both
	// sets cache-resident.
	nodeBan  []uint8
	edgeBan  []uint8
	banEpoch uint8

	// Reverse tree: a BFS from the current target over the plain
	// topology, grown one whole level at a time and only as deep as
	// searches need it (deepen). label[v] is v's hop distance to revT
	// plus one, or 0 while v is unlabelled — so retarget resets with one
	// clear, and label[v]-1 in uint8 arithmetic reads an unlabelled node
	// as 255 hops, above every label. revQueue holds every labelled node
	// in BFS order; levels 0..revDepth are complete and revQueue[revHead:]
	// is level revDepth, not yet expanded — so an unlabelled node is more
	// than revDepth hops away. Consecutive searches towards one target (a
	// Yen run's spurs, Algorithm 1's rounds) share it; revG keeps the
	// last graph searched reachable until the Scratch is used again.
	revG     *topo.Graph
	revT     topo.NodeID
	revChans int
	label    []uint8
	revQueue []topo.NodeID
	revHead  int
	revDepth int

	expanded int // nodes dequeued, forward passes and reverse tree alike
}

// Reverse-tree hop counts: the tree stops growing at maxLabel hops, and
// an unlabelled node reads as unlabelled hops — farther than any label.
const (
	maxLabel   = 254
	unlabelled = 255
)

// NewScratch returns an empty Scratch; buffers grow to fit the first
// graph searched.
func NewScratch() *Scratch { return new(Scratch) }

var scratchPool = sync.Pool{New: func() any { return new(Scratch) }}

// AcquireScratch draws a Scratch from the package pool. Pair with
// ReleaseScratch.
func AcquireScratch() *Scratch { return scratchPool.Get().(*Scratch) }

// ReleaseScratch returns a Scratch to the package pool. The caller must
// not use sc, or any path aliasing its buffers, afterwards.
func ReleaseScratch(sc *Scratch) { scratchPool.Put(sc) }

// ensure sizes the scratch for g and opens a fresh visited epoch.
func (sc *Scratch) ensure(g *topo.Graph) {
	if n := g.NumNodes(); len(sc.parent) < n {
		sc.parent = make([]topo.NodeID, n)
		sc.mark = make([]uint8, n)
		sc.epoch = 0
		sc.queue = make([]topo.NodeID, 0, n)
		sc.label = make([]uint8, n)
		sc.revQueue = make([]topo.NodeID, 0, n)
		sc.revG = nil
	}
	sc.nextEpoch()
}

// nextEpoch invalidates every visited mark in O(1).
func (sc *Scratch) nextEpoch() {
	sc.epoch++
	if sc.epoch == 0 { // uint8 wrap: stale stamps could alias, clear once
		clear(sc.mark)
		sc.epoch = 1
	}
}

// ensureBans sizes the ban-sets for g and opens a fresh ban epoch.
func (sc *Scratch) ensureBans(g *topo.Graph) {
	if n := g.NumNodes(); len(sc.nodeBan) < n {
		sc.nodeBan = make([]uint8, n)
	}
	if m := 2 * g.NumChannels(); len(sc.edgeBan) < m {
		sc.edgeBan = make([]uint8, m)
	}
	sc.banEpoch++
	if sc.banEpoch == 0 { // uint8 wrap, see ensure
		clear(sc.nodeBan)
		clear(sc.edgeBan)
		sc.banEpoch = 1
	}
}

// banNode excludes v from the next banned search.
func (sc *Scratch) banNode(v topo.NodeID) { sc.nodeBan[v] = sc.banEpoch }

// banEdge excludes the directed hop u→v over channel idx from the next
// banned search.
func (sc *Scratch) banEdge(idx int, u, v topo.NodeID) {
	d := 0
	if u > v {
		d = 1
	}
	sc.edgeBan[2*idx+d] = sc.banEpoch
}

// banChannel excludes channel idx in both directions.
func (sc *Scratch) banChannel(idx int) {
	sc.edgeBan[2*idx] = sc.banEpoch
	sc.edgeBan[2*idx+1] = sc.banEpoch
}

// ShortestPath is graph.ShortestPath running entirely in the scratch
// buffers: a minimum-hop path from s to t whose every directed hop
// satisfies usable, or nil. The returned slice aliases the scratch and
// is valid until the next search on sc. Neighbor order breaks ties,
// exactly as in the allocating version.
func (sc *Scratch) ShortestPath(g *topo.Graph, s, t topo.NodeID, usable Usable) []topo.NodeID {
	return sc.search(g, s, t, usable, nil, false)
}

// ShortestPathCh is ShortestPath with a channel-aware predicate: the
// search hands cu the channel index it is already holding for the hop,
// so predicates keyed by channel (the elephant router's probed-residual
// filter) avoid a per-hop ChannelIndex lookup.
func (sc *Scratch) ShortestPathCh(g *topo.Graph, s, t topo.NodeID, cu ChUsable) []topo.NodeID {
	return sc.search(g, s, t, nil, cu, false)
}

// search is the one s→t search behind every entry point of the package:
// a minimum-hop path whose hops pass usable/cu and, when banned, the
// scratch ban-sets (Yen spurs, disjoint paths) — or nil. It is a BFS that
// expands only nodes that can still lie on a path of at most bound hops,
// with bound deepened one hop at a time from the reverse tree's lower
// bound for s, and the tree deepened one level ahead of it.
//
// Why the path is the one an unpruned BFS returns, tie-breaks included:
// h(v) — v's label, or revDepth+1 while v is unlabelled — is a lower bound
// on v's hop distance to t that is consistent, h(p) ≤ h(v)+1 across any
// hop p→v, because bans and predicates only remove hops from the plain
// topology the labels were taken on. A pass keeps v iff depth(v)+h(v) ≤
// bound. If v is kept, so is its BFS parent p: depth(p)+h(p) ≤
// depth(v)−1+h(v)+1. The kept set is thus closed under BFS-parent, so by
// induction on queue order the pass's queue is the unpruned queue with
// the dropped nodes deleted — kept nodes keep their relative order, depth
// and parent — and t, once bound reaches its distance, is reached from
// the same parent along the same chain. A pass that misses t after
// dropping an open hop proves nothing and reruns one hop deeper; a pass
// that dropped none was a full BFS: nil. Predicates must be pure: a pass
// may ask about a hop it then prunes, and the next pass asks again.
func (sc *Scratch) search(g *topo.Graph, s, t topo.NodeID, usable Usable, cu ChUsable, banned bool) []topo.NodeID {
	if s == t {
		sc.path = append(sc.path[:0], s)
		return sc.path
	}
	sc.ensure(g)
	off, nbrs, chans := g.AdjacencyView()
	sc.retarget(g, t)
	parent, mark, label := sc.parent, sc.mark, sc.label
	bound := int(label[s]) - 1
	if bound < 0 {
		bound = sc.revDepth + 1
	}
	for ; ; bound++ {
		// Every pruning test of the pass reads h ≤ bound-1: complete the
		// levels that decide it, so that unlabelled means farther.
		sc.deepen(off, nbrs, bound-1)
		if label[s] == 0 && sc.revHead == len(sc.revQueue) {
			return nil // t's whole component is labelled and s is not in it
		}
		epoch := sc.epoch
		parent[s], mark[s] = s, epoch
		queue := append(sc.queue[:0], s)
		cut := false
		lim, levelEnd := bound, 0
		var admit uint8
		for head := 0; head < len(queue); head++ {
			if head == levelEnd { // next BFS level: one hop spent
				levelEnd = len(queue)
				lim--
				admit = unlabelled // past maxLabel the tree bounds nothing
				if lim < maxLabel {
					admit = uint8(lim)
				}
			}
			u := queue[head]
			lo, hi := off[u], off[u+1]
			crun := chans[lo:hi]
			for i, v := range nbrs[lo:hi] {
				if label[v]-1 > admit {
					if !cut && mark[v] != epoch && sc.open(u, v, crun[i], usable, cu, banned) {
						cut = true
					}
					continue
				}
				if mark[v] == epoch || !sc.open(u, v, crun[i], usable, cu, banned) {
					continue
				}
				parent[v] = u
				mark[v] = epoch
				if v == t {
					sc.queue = queue
					sc.expanded += head + 1
					return sc.reconstruct(s, t)
				}
				queue = append(queue, v)
			}
		}
		sc.queue = queue
		sc.expanded += len(queue)
		if !cut {
			return nil
		}
		sc.nextEpoch()
	}
}

// open reports whether the hop u→v over channel ch passes the ban-sets
// (when banned) and the caller's predicate.
func (sc *Scratch) open(u, v topo.NodeID, ch int32, usable Usable, cu ChUsable, banned bool) bool {
	if banned {
		d := 2 * ch
		if u > v {
			d++
		}
		if sc.nodeBan[v] == sc.banEpoch || sc.edgeBan[d] == sc.banEpoch {
			return false
		}
	}
	if usable != nil && !usable(u, v) {
		return false
	}
	return cu == nil || cu(u, v, ch)
}

// retarget points the reverse tree at (g, t), keeping it when it already
// is: the key includes the channel count, the one thing that changes when
// a graph is mutated (channels are only ever added).
func (sc *Scratch) retarget(g *topo.Graph, t topo.NodeID) {
	if sc.revG == g && sc.revT == t && sc.revChans == g.NumChannels() {
		return
	}
	clear(sc.label[:g.NumNodes()])
	sc.revG, sc.revT, sc.revChans = g, t, g.NumChannels()
	sc.label[t] = 1
	sc.revQueue = append(sc.revQueue[:0], t)
	sc.revHead, sc.revDepth = 0, 0
}

// deepen completes reverse levels until levels 0..depth are, or the tree
// can grow no further: t's component is labelled, or depth maxLabel is
// reached.
func (sc *Scratch) deepen(off []int32, nbrs []topo.NodeID, depth int) {
	label, queue, head := sc.label, sc.revQueue, sc.revHead
	for sc.revDepth < depth && sc.revDepth < maxLabel && head < len(queue) {
		sc.revDepth++
		d := uint8(sc.revDepth + 1)
		for end := len(queue); head < end; head++ {
			u := queue[head]
			for _, v := range nbrs[off[u]:off[u+1]] {
				if label[v] == 0 {
					label[v] = d
					queue = append(queue, v)
				}
			}
		}
	}
	sc.expanded += head - sc.revHead
	sc.revQueue, sc.revHead = queue, head
}

// reconstruct rebuilds the s→t path from the parent array into the
// scratch path buffer.
func (sc *Scratch) reconstruct(s, t topo.NodeID) []topo.NodeID {
	rev := sc.path[:0]
	for v := t; ; v = sc.parent[v] {
		rev = append(rev, v)
		if v == s {
			break
		}
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	sc.path = rev
	return rev
}

// appendCopy returns a retained copy of a scratch-aliased path.
func appendCopy(p []topo.NodeID) []topo.NodeID {
	return append(make([]topo.NodeID, 0, len(p)), p...)
}
