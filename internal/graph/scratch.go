package graph

import (
	"repro/internal/mem"
	"repro/internal/topo"
)

// Scratch is the reusable working memory of the path searches in this
// package: the depth-first stack, which is the node-path result too, a
// hop-path result buffer, per-node hop budgets behind epoch-stamped
// visited marks (a new pass bumps the epoch instead of clearing — reset
// is O(1), and only the nodes a search actually touches are ever
// written), a node queue for the closure scans and sweeps, the Yen spur
// ban-sets keyed by channel index, and the Yen run's path arena and
// candidate heap. One Scratch amortises every
// per-call allocation of ShortestPath and YenKSP: a steady-state search
// with a warm Scratch allocates nothing, and a Yen run only the paths it
// returns.
//
// A Scratch is not safe for concurrent use; callers either own one per
// goroutine or draw from AcquireScratch/ReleaseScratch. Results
// returned by Scratch methods alias the scratch buffers and are valid
// only until the next search on the same Scratch — callers that retain
// a path must copy it.
type Scratch struct {
	parent []topo.NodeID // the most hops v was entered with this pass (the oracle BFS: v's parent)
	mark   []uint8       // parent[v] is valid iff mark[v] == epoch; one byte
	epoch  uint8         // per node keeps the visited set L1-resident
	queue  []topo.NodeID // the nodes a pass entered, then the backward sweep's queue
	path   []topo.NodeID // DFS stack, and the result: the path from s so far
	iter   []int32       // DFS stack, beside path: the next adjacency slot of path[d]
	hops   []topo.NodeID // the last hop path built from the stack (found)

	// Yen spur state: node bans for the root prefix, directed-edge bans
	// keyed 2·channel + direction (direction 1 = higher endpoint to
	// lower, exploiting Edge canonicalisation, so no channel record is
	// ever loaded on the search path). Stamped with banEpoch so clearing
	// a spur's bans is a single increment; one byte per slot keeps both
	// sets cache-resident.
	nodeBan  []uint8
	edgeBan  []uint8
	banEpoch uint8
	yen      yenState // a Yen run's paths, candidates and seen set

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
	label    []uint8
	revQueue []topo.NodeID
	revHead  int
	revDepth int

	// Augmenting sequence (AugmentingPath): the key it was started on, and
	// augBound, the bound of the pass the last round's path came from — 0
	// while no pass is held. A held pass is the state that path left
	// behind: its epoch's marks and budgets, the nodes it entered (queue),
	// and the stack (path, ending in t) with, in iter, one past the
	// adjacency slot each hop of it took. Any other search drops it.
	augG     *topo.Graph
	augS     topo.NodeID
	augT     topo.NodeID
	augBound int

	// Work done, by every loop of the package — forward passes, reverse
	// tree, closure scans and backward sweeps: nodes entered or dequeued,
	// and adjacency entries read, which is what a search costs (a hub is
	// one node and a thousand entries).
	expanded int
	edges    int
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

// scratches holds the Scratches ReleaseScratch handed back, for
// AcquireScratch to reuse. It is shared by every caller in the process
// and never shrinks, so it holds as many as were ever in use at once,
// each with buffers sized to the largest graph it searched.
var scratches mem.FreeList[Scratch]

// AcquireScratch draws a Scratch from the package's free list, or a new
// one when the list is empty. Pair with ReleaseScratch.
func AcquireScratch() *Scratch { return scratches.Get() }

// ReleaseScratch returns a Scratch to the package's free list. The
// caller must not use sc, or any path aliasing its buffers, afterwards.
// Releasing ends any augmenting sequence running on sc.
func ReleaseScratch(sc *Scratch) {
	sc.augG, sc.augBound = nil, 0
	scratches.Put(sc)
}

// ensure sizes the scratch for g and opens a fresh visited epoch.
func (sc *Scratch) ensure(g *topo.Graph) {
	if n := g.NumNodes(); len(sc.parent) < n {
		sc.parent = make([]topo.NodeID, n)
		sc.mark = make([]uint8, n)
		sc.epoch = 0
		// One array holds the entered-node queue (at most n nodes) and the
		// hop-path buffer (2n-1 elements fit any simple path), so hop paths
		// cost a fresh Scratch no allocation of their own.
		nodes := make([]topo.NodeID, 3*n)
		sc.queue, sc.hops = nodes[:0:n], nodes[n:n]
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
	return sc.search(g, s, t, usable, false, 0)
}

// Shortest is ShortestPath returning the hop path: the same nodes, with
// the channel each hop crosses. It aliases the scratch like ShortestPath.
func (sc *Scratch) Shortest(g *topo.Graph, s, t topo.NodeID, usable Usable) topo.Path {
	return sc.found(g, sc.search(g, s, t, usable, false, 0))
}

// AugmentingPath is one round of an augmenting-path loop — Algorithm 1's —
// on sc: a minimum-hop hop path from s to t whose every directed hop
// passes usable (the elephant router's probed-residual filter), or nil;
// the path carries the channel indices usable was handed. It aliases
// the scratch like ShortestPath. first starts a sequence with a fresh
// search; each later round continues the pass the round before stopped
// in (see search), so it costs what changed between the rounds rather
// than a new search, and returns the same path.
//
// Between the rounds of a sequence usable may only close hops, or open the
// reverse of hops of the path the round before returned — what probing and
// the Edmonds–Karp residual update do. That is a proof the caller owes, not
// a hint the search checks: a predicate that opens any other hop may get an
// open path that is not the shortest. A fresh predicate (a new payment's
// knowledge) reopens every hop, so its first round must pass first. A
// sequence also ends, and the next round searches afresh, on any other
// search on sc, on ReleaseScratch, on another (g, s, t), and after a nil
// round.
func (sc *Scratch) AugmentingPath(g *topo.Graph, s, t topo.NodeID, usable Usable, first bool) topo.Path {
	var p []topo.NodeID
	if first || sc.augBound == 0 || sc.augG != g || sc.augS != s || sc.augT != t {
		p = sc.search(g, s, t, usable, false, 0)
		sc.augG, sc.augS, sc.augT = g, s, t
	} else {
		p = sc.resume(g, s, t, usable)
	}
	sc.augBound = max(len(p)-1, 0) // a pass's path is its bound long; nil and s = t hold none
	return sc.found(g, p)
}

// found lays out p, the path the last search on sc returned, as a hop
// path in sc's hop buffer.
func (sc *Scratch) found(g *topo.Graph, p []topo.NodeID) topo.Path {
	if p == nil {
		return topo.Path{}
	}
	_, _, chans := g.AdjacencyView()
	var hp topo.Path
	hp, sc.hops = sc.join(chans, topo.Path{}, 0, p, sc.hops[:0])
	return hp
}

// join appends to buf the hop path that runs along the first i hops of
// prev and then along p, the path the last search left on the stack,
// which starts at prev's node i (prev is the zero Path for p alone), and
// returns it, its capacity ending with it, and the grown buffer. chans is
// the graph's adjacency channel slab: a search leaves, beside each hop of
// its path on the stack, one past the adjacency slot the hop took, so the
// channels come from the search, not a lookup.
func (sc *Scratch) join(chans []int32, prev topo.Path, i int, p []topo.NodeID, buf []topo.NodeID) (topo.Path, []topo.NodeID) {
	start := len(buf)
	buf = append(append(buf, prev.Nodes()[:i]...), p...)
	for h := range i {
		buf = append(buf, topo.NodeID(prev.Chan(h)))
	}
	for _, slot := range sc.iter[:len(p)-1] {
		buf = append(buf, topo.NodeID(chans[slot-1]))
	}
	return topo.PathOf(buf[start:len(buf):len(buf)]), buf
}

// search is the one s→t search behind every entry point of the package:
// a minimum-hop path whose hops pass usable and, when banned, the
// scratch ban-sets (Yen spurs, disjoint paths) — or nil. It is a depth-first
// descent in neighbour-list order, at most bound hops deep, with bound
// deepened one hop at a time from the reverse tree's lower bound for s or
// the caller's floor, whichever is larger.
//
// Why the path is the one an unpruned BFS returns, tie-breaks included. A
// BFS orders the nodes of a level by (rank of parent, position in the
// parent's list), so by induction on depth its path P to t is, of all
// shortest open paths, the one whose sequence of list positions is
// lexicographically smallest. A pass tries neighbours in list order, so it
// walks position sequences in that order, and whatever reaches t within
// bound hops is an open walk of that length: nothing below t's distance,
// only shortest paths at it — and the first of them is P unless the pass
// refuses a step of P. It refuses a step to v on two grounds. (1) h(v) —
// v's label, or revDepth+1 while v is unlabelled — exceeds the hops left:
// h is a lower bound on the open distance to t, because bans and predicates
// only remove hops from the plain topology the labels were taken on, so no
// node of a shortest path is refused. (2) The budget memo: parent[v] holds
// the most hops v was entered with this pass, and v is entered again only
// with strictly more. Each node of P sits at its BFS depth, so an earlier
// entry into one with as many hops left came down an equally short path
// with a smaller position sequence, which continued along P would be a
// shortest path ahead of P — there is none.
//
// No path: a DFS always meets the bound somewhere, so a failed pass proves
// nothing by itself. Two closure rules end the deepening. Forward (closed):
// if no open hop leaves the set of nodes the pass entered, everything s
// reaches is in it, and t is not. Backward (reachable), from the second
// failed pass on: sweep from t over the hops open towards it, for at most
// the adjacency entries this bound cost; if the set that reaches t closes
// without s in it there is no path. An exhausted receiver — Algorithm 1's
// last round — so costs two short passes and its inbound hops, not a flood
// per bound.
//
// The floor is a lower bound on the open distance that the caller has
// proved, as h is one the tree has: passes below the distance find nothing
// and the pass at it does not depend on them, so starting at
// max(label bound, floor) returns the same path and skips the failed passes
// and the sweeps they trigger. Edmonds–Karp proves one every round: probing
// only closes hops and the residual update only opens the reverse of hops on
// a shortest path, so the distance never shrinks and the last round's hop
// count is a floor for the next. A floor above the distance is a caller bug:
// the first pass then walks to the first open path within the floor in list
// order, which need not be a shortest one. With no path, though, the skipped
// passes were the cheap ones that earned the backward sweep its budget, and
// the first pass is now a flood at the floor. So a search that skips passes
// starts by reading t's own list: Algorithm 1 runs dry when no hop into the
// receiver is open, and that ends the search for at most deg(t) reads.
//
// The resume (AugmentingPath) takes the same proof one step further: within
// a phase — rounds at one bound — a round continues the pass the round
// before stopped in instead of starting one at s. Marks, budgets and the
// entered set stay; the stack stays up to its first hop that closed, each
// kept level at the slot its hop took (the current arc: every slot before
// it was refused or failed, and stays so); the nodes above the cut go back
// to unvisited, and the cut level scans on past it. Why the path is the one
// a fresh pass at that bound returns. In a pass at bound D = dist(s, t), a
// node w that failed with h hops left has no open path of h hops to t. Else
// w's stack and that path make an s→t walk of at most D hops, so a shortest
// path, so simple; the path's next node is neither on the stack nor refused
// by its label, so before w failed it was entered with at least h-1 hops
// left and failed — and by induction on the order of failures it has no open
// path of h-1 hops, a contradiction. Between rounds a hop
// opens only as the reverse of a hop of the last path, a shortest path, so
// it leads one hop away from t and no distance to t shrinks: a failed node
// stays dead, and every shortest open path uses old hops only, so none is
// lexicographically smaller than the last path and starting the walk there
// skips none. So while the distance is still D the resumed pass meets the
// lexicographically-first shortest path first, as a fresh one does; once
// it grew, the resumed pass fails, the forward closure rule runs on the
// cumulative entered set (the marks are all of it, and a closed marked set
// with s in it and t not proves no path however it was built), and the
// search deepens with a fresh epoch as above. Before continuing, a resumed
// round reads t's list as a floored search does.
//
// The depth rule: at bound, the tree is complete to bound-2 hops, which
// leaves only the first step out of s blind (an unlabelled neighbour reads
// as bound-1 hops away and is admitted). One more level makes that step
// exact too, and is grown only when the tree's frontier is no larger than
// deg(s): expand the cheaper side. Predicates must be pure: a pass asks
// about a hop again after backing out of it, and so does the next pass.
func (sc *Scratch) search(g *topo.Graph, s, t topo.NodeID, usable Usable, banned bool, floor int) []topo.NodeID {
	sc.augBound = 0 // any search ends an augmenting sequence; AugmentingPath re-holds its own
	if s == t {
		sc.path = append(sc.path[:0], s)
		return sc.path
	}
	sc.ensure(g)
	off, nbrs, chans := g.AdjacencyView()
	sc.retarget(g, t)
	bound := int(sc.label[s]) - 1
	if bound < 0 {
		bound = sc.revDepth + 1
	}
	if floor > bound {
		bound = floor
		if !sc.inboundOpen(off, nbrs, chans, t, usable, banned) {
			return nil // no hop into t is open
		}
	}
	return sc.deepening(off, nbrs, chans, s, t, bound, -1, usable, banned)
}

// resume continues the pass the last round of an augmenting sequence held,
// at its bound (see search).
func (sc *Scratch) resume(g *topo.Graph, s, t topo.NodeID, usable Usable) []topo.NodeID {
	off, nbrs, chans := g.AdjacencyView()
	if !sc.inboundOpen(off, nbrs, chans, t, usable, false) {
		return nil // no hop into t is open
	}
	path, iter := sc.path, sc.iter
	e := 0 // the stack holds up to its first closed hop
	for e < len(iter) && sc.open(path[e], path[e+1], chans[iter[e]-1], usable, false) {
		e++
	}
	sc.edges += min(e+1, len(iter))
	if e == len(iter) {
		return path // no hop of it closed
	}
	for _, v := range path[e+1 : len(iter)] {
		sc.parent[v] = -1 // off the stack but not proved dead: enterable with any budget
	}
	sc.path, sc.iter = path[:e+1], iter[:e+1]
	return sc.deepening(off, nbrs, chans, s, t, sc.augBound, e, usable, false)
}

// deepening runs passes at bound, bound+1, ... until one reaches t or a
// closure rule ends the search (see search). The first pass continues the
// pass held on the stack from level d when d ≥ 0 (a resume); every other
// pass is fresh: it grows the reverse tree for its bound and starts at s,
// in the current epoch. A pass that reaches t leaves the path, ending in t,
// on the stack, and in iter one past the slot each of its hops took; every
// node a pass marks is appended to entered (queue).
func (sc *Scratch) deepening(off []int32, nbrs []topo.NodeID, chans []int32, s, t topo.NodeID, bound, d int, usable Usable, banned bool) []topo.NodeID {
	budget, mark, label := sc.parent, sc.mark, sc.label
	for failed := 0; ; bound++ {
		before := sc.edges
		epoch := sc.epoch
		entered, path, iter := sc.queue, sc.path, sc.iter
		if d < 0 { // a fresh pass
			sc.deepen(off, nbrs, bound-2)
			if len(sc.revQueue)-sc.revHead <= int(off[s+1]-off[s]) {
				sc.deepen(off, nbrs, bound-1)
			}
			if label[s] == 0 && sc.revHead == len(sc.revQueue) {
				return nil // t's whole component is labelled and s is not in it
			}
			budget[s], mark[s] = topo.NodeID(bound), epoch
			sc.expanded++
			entered = append(entered[:0], s)
			path = append(path[:0], s) // the DFS stack is the path so far
			iter = append(iter[:0], off[s])
			d = 0
		}
		for d >= 0 {
			u := path[d]
			lim := bound - d - 1 // hops left after the step out of u
			admit := uint8(unlabelled)
			if lim <= sc.revDepth {
				admit = uint8(lim)
			}
			i, hi := iter[d], off[u+1]
			from := i
			for ; i < hi; i++ {
				if v := nbrs[i]; label[v]-1 <= admit && (mark[v] != epoch || budget[v] < topo.NodeID(lim)) &&
					sc.open(u, v, chans[i], usable, banned) {
					break
				}
			}
			sc.edges += int(i - from)
			if i == hi { // u is exhausted: back out of it
				d--
				path, iter = path[:d+1], iter[:d+1]
				continue
			}
			sc.edges++
			iter[d] = i + 1
			v := nbrs[i]
			if v == t {
				sc.queue, sc.iter, sc.path = entered, iter, append(path, t)
				return sc.path
			}
			if mark[v] != epoch {
				mark[v] = epoch
				entered = append(entered, v)
			}
			budget[v] = topo.NodeID(lim)
			sc.expanded++
			path, iter = append(path, v), append(iter, off[v])
			d++
		}
		sc.queue, sc.iter, sc.path = entered, iter, path
		spent := sc.edges - before // what this bound cost: tree growth and pass
		failed++
		if sc.closed(off, nbrs, chans, entered, usable, banned) ||
			failed > 1 && !sc.reachable(off, nbrs, chans, s, t, spent, usable, banned) {
			return nil
		}
		sc.nextEpoch()
	}
}

// inboundOpen reports whether any hop into t is open, reading t's list up
// to the first that is. It leaves the marks alone.
func (sc *Scratch) inboundOpen(off []int32, nbrs []topo.NodeID, chans []int32, t topo.NodeID, usable Usable, banned bool) bool {
	for i := off[t]; i < off[t+1]; i++ {
		if sc.open(nbrs[i], t, chans[i], usable, banned) {
			sc.edges += int(i-off[t]) + 1
			return true
		}
	}
	sc.edges += int(off[t+1] - off[t])
	return false
}

// closed reports whether no open hop leaves the set of nodes the pass just
// run entered, stopping at the first that does.
func (sc *Scratch) closed(off []int32, nbrs []topo.NodeID, chans []int32, entered []topo.NodeID, usable Usable, banned bool) bool {
	for _, u := range entered {
		for i := off[u]; i < off[u+1]; i++ {
			if v := nbrs[i]; sc.mark[v] != sc.epoch && sc.open(u, v, chans[i], usable, banned) {
				sc.edges += int(i-off[u]) + 1
				return false
			}
		}
		sc.edges += int(off[u+1] - off[u])
	}
	return true
}

// reachable sweeps backwards from t over hops open towards it and reports
// false only when the set of nodes that reach t closed without s in it;
// true means s reaches t or the sweep ran out of its budget of edge reads
// with nodes left to expand.
func (sc *Scratch) reachable(off []int32, nbrs []topo.NodeID, chans []int32, s, t topo.NodeID, reads int, usable Usable, banned bool) bool {
	sc.nextEpoch()
	mark, epoch := sc.mark, sc.epoch
	mark[t] = epoch
	queue := append(sc.queue[:0], t)
	for head := 0; head < len(queue); head++ {
		if reads <= 0 {
			sc.queue = queue
			return true
		}
		u := queue[head]
		reads -= int(off[u+1] - off[u])
		sc.edges += int(off[u+1] - off[u])
		for i := off[u]; i < off[u+1]; i++ {
			v := nbrs[i]
			if mark[v] == epoch || !sc.open(v, u, chans[i], usable, banned) {
				continue
			}
			if v == s {
				sc.queue = queue
				return true
			}
			mark[v] = epoch
			queue = append(queue, v)
		}
		sc.expanded++
	}
	sc.queue = queue
	return false
}

// open reports whether the hop u→v over channel ch passes the ban-sets
// (when banned) and the caller's predicate.
func (sc *Scratch) open(u, v topo.NodeID, ch int32, usable Usable, banned bool) bool {
	if banned {
		d := 2 * ch
		if u > v {
			d++
		}
		if sc.nodeBan[v] == sc.banEpoch || sc.edgeBan[d] == sc.banEpoch {
			return false
		}
	}
	return usable == nil || usable(u, v, ch)
}

// retarget points the reverse tree at (g, t), keeping it when it already
// is. The graph alone is the key: a graph is frozen before anything
// searches it, so its topology never changes under a tree.
func (sc *Scratch) retarget(g *topo.Graph, t topo.NodeID) {
	if sc.revG == g && sc.revT == t {
		return
	}
	clear(sc.label[:g.NumNodes()])
	sc.revG, sc.revT = g, t
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
			sc.edges += int(off[u+1] - off[u])
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

// appendCopy returns a retained copy of a scratch-aliased path.
func appendCopy(p []topo.NodeID) []topo.NodeID {
	return append(make([]topo.NodeID, 0, len(p)), p...)
}
