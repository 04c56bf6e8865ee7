package graph

import (
	"container/heap"

	"repro/internal/topo"
)

// This file holds the reference implementations the differential tests
// and BenchmarkSearch run the production search against: the pre-change
// BFS, and Yen / disjoint-path drivers identical to the production ones
// except that they call it.

// oracleSearch is the unidirectional, unbounded s→t BFS every entry point
// ran before the goal-directed search replaced it, kept verbatim (bar the
// work counters, which charge a dequeued node its whole neighbour list, the
// last one included) as the reference the differential tests compare
// against: banned additionally applies the scratch ban-sets, and the
// predicate-free case runs a specialised loop with no predicate branches.
func (sc *Scratch) oracleSearch(g *topo.Graph, s, t topo.NodeID, usable Usable, banned bool) []topo.NodeID {
	if s == t {
		sc.path = append(sc.path[:0], s)
		return sc.path
	}
	sc.ensure(g)
	off, nbrs, chans := g.AdjacencyView()
	sc.parent[s] = s
	sc.mark[s] = sc.epoch
	if usable == nil {
		return sc.oracleSearchNoPred(off, nbrs, chans, s, t, banned)
	}
	parent, mark, epoch := sc.parent, sc.mark, sc.epoch
	queue := sc.queue[:0]
	queue = append(queue, s)
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		lo, hi := off[u], off[u+1]
		run := nbrs[lo:hi]
		crun := chans[lo:hi]
		sc.edges += len(run)
		for i, v := range run {
			if mark[v] == epoch {
				continue
			}
			if banned {
				if sc.nodeBan[v] == sc.banEpoch {
					continue
				}
				d := 2 * crun[i]
				if u > v {
					d++
				}
				if sc.edgeBan[d] == sc.banEpoch {
					continue
				}
			}
			if !usable(u, v, crun[i]) {
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
	return nil
}

// oracleSearchNoPred is the predicate-free BFS body: identical traversal
// order, with the per-edge predicate checks compiled out.
func (sc *Scratch) oracleSearchNoPred(off []int32, nbrs []topo.NodeID, chans []int32, s, t topo.NodeID, banned bool) []topo.NodeID {
	parent, mark, epoch := sc.parent, sc.mark, sc.epoch
	queue := sc.queue[:0]
	queue = append(queue, s)
	if banned {
		nodeBan, edgeBan, banEpoch := sc.nodeBan, sc.edgeBan, sc.banEpoch
		for head := 0; head < len(queue); head++ {
			u := queue[head]
			lo, hi := off[u], off[u+1]
			run := nbrs[lo:hi]
			crun := chans[lo:hi]
			sc.edges += len(run)
			for i, v := range run {
				if mark[v] == epoch || nodeBan[v] == banEpoch {
					continue
				}
				d := 2 * crun[i]
				if u > v {
					d++
				}
				if edgeBan[d] == banEpoch {
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
		return nil
	}
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		sc.edges += int(off[u+1] - off[u])
		for _, v := range nbrs[off[u]:off[u+1]] {
			if mark[v] == epoch {
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
	return nil
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

// oraclePath is nodes as a hop path whose channels come from
// g.ChannelIndex, the lookup the searches' carried channels replace.
func oraclePath(g *topo.Graph, nodes []topo.NodeID) topo.Path {
	chans := make([]int32, 0, len(nodes))
	for i := 0; i+1 < len(nodes); i++ {
		chans = append(chans, int32(g.ChannelIndex(nodes[i], nodes[i+1])))
	}
	return topo.MakePath(nodes, chans)
}

// oracleYenKSP is Scratch.yenKSP over oracleSearch, with every channel
// (the spur bans' and the paths') looked up by g.ChannelIndex.
func (sc *Scratch) oracleYenKSP(g *topo.Graph, s, t topo.NodeID, k int, usable Usable) []topo.Path {
	if k <= 0 {
		return nil
	}
	first := sc.oracleSearch(g, s, t, usable, false)
	if first == nil {
		return nil
	}
	firstPath := oraclePath(g, first)
	accepted := []topo.Path{firstPath}
	devs := []int{0}
	cands := &candHeap{}
	seen := append(make([]seenPath, 0, 4*k), seenPath{pathKey(first), firstPath})
	for len(accepted) < k {
		prev := accepted[len(accepted)-1].Nodes()
		for i := devs[len(devs)-1]; i+1 < len(prev); i++ {
			spur := prev[i]
			root := prev[:i+1]
			sc.ensureBans(g)
			for _, q := range accepted {
				if p := q.Nodes(); len(p) > i && samePrefix(p, root) {
					sc.banEdge(g.ChannelIndex(p[i], p[i+1]), p[i], p[i+1])
				}
			}
			for _, u := range root[:len(root)-1] {
				sc.banNode(u)
			}
			spurPath := sc.oracleSearch(g, spur, t, usable, true)
			if spurPath == nil {
				continue
			}
			total := make([]topo.NodeID, 0, len(root)+len(spurPath)-1)
			total = append(total, root...)
			total = append(total, spurPath[1:]...)
			if p := oraclePath(g, total); rememberPath(&seen, p) {
				heap.Push(cands, yenCand{path: p, dev: i})
			}
		}
		if cands.Len() == 0 {
			break
		}
		c := heap.Pop(cands).(yenCand)
		accepted = append(accepted, c.path)
		devs = append(devs, c.dev)
	}
	return accepted
}

// Len, Push and Pop adapt candHeap to container/heap, which
// oracleYenKSP keeps using: the typed heap the production run pushes and
// pops must accept candidates in the same order.
func (h candHeap) Len() int    { return len(h) }
func (h *candHeap) Push(x any) { *h = append(*h, x.(yenCand)) }
func (h *candHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// oracleEdgeDisjointPaths is EdgeDisjointPaths over oracleSearch, with
// channels looked up by g.ChannelIndex.
func (sc *Scratch) oracleEdgeDisjointPaths(g *topo.Graph, s, t topo.NodeID, k int) []topo.Path {
	sc.ensureBans(g)
	var paths []topo.Path
	for len(paths) < k {
		p := sc.oracleSearch(g, s, t, nil, true)
		if p == nil {
			break
		}
		p = appendCopy(p)
		for i := 0; i+1 < len(p); i++ {
			sc.banChannel(g.ChannelIndex(p[i], p[i+1]))
		}
		paths = append(paths, oraclePath(g, p))
	}
	return paths
}
