package graph

import (
	"container/heap"

	"repro/internal/topo"
)

// YenKSP returns up to k loopless minimum-hop paths from s to t in
// non-decreasing hop order, using Yen's algorithm (Yen 1971) over BFS
// shortest paths. Flash builds each sender's mice routing table from the
// top-m of these paths (§3.3). Ties between equal-length paths break
// lexicographically on node IDs, so output is deterministic.
func YenKSP(g *topo.Graph, s, t topo.NodeID, k int) [][]topo.NodeID {
	return YenKSPUsable(g, s, t, k, nil)
}

// YenKSPUsable is YenKSP restricted to directed hops satisfying usable:
// every hop of every returned path passes the predicate, exactly as in
// ShortestPath. Flash's speculative probe pipeline uses it to draw the
// per-round candidate set from the sender's residual knowledge graph —
// the BFS shortest path plus edge-avoidance spur deviations, all
// distinct and all deterministic for a fixed graph and predicate.
func YenKSPUsable(g *topo.Graph, s, t topo.NodeID, k int, usable Usable) [][]topo.NodeID {
	return yenKSP(g, s, t, k, usable, nil)
}

// YenKSPCh is YenKSPUsable with a channel-aware predicate (ChUsable):
// same algorithm, same output for an equivalent predicate, but the hop
// filter receives the channel index the traversal already holds.
func YenKSPCh(g *topo.Graph, s, t topo.NodeID, k int, cu ChUsable) [][]topo.NodeID {
	return yenKSP(g, s, t, k, nil, cu)
}

func yenKSP(g *topo.Graph, s, t topo.NodeID, k int, usable Usable, cu ChUsable) [][]topo.NodeID {
	sc := AcquireScratch()
	defer ReleaseScratch(sc)
	return sc.yenKSP(g, s, t, k, usable, cu)
}

// yenKSP runs Yen's algorithm on sc. The first search and every spur
// search head for the same t, so they all prune against one reverse tree.
func (sc *Scratch) yenKSP(g *topo.Graph, s, t topo.NodeID, k int, usable Usable, cu ChUsable) [][]topo.NodeID {
	if k <= 0 {
		return nil
	}
	first := sc.search(g, s, t, usable, cu, false, 0)
	if first == nil {
		return nil
	}
	first = appendCopy(first)
	accepted := [][]topo.NodeID{first}
	devs := []int{0} // devs[j] = spur index accepted[j] deviated at
	cands := &candHeap{}
	seen := append(make([]seenPath, 0, 4*k), seenPath{pathKey(first), first})

	for len(accepted) < k {
		prev := accepted[len(accepted)-1]
		// Lawler's optimisation: spur indices below prev's own deviation
		// point rerun an earlier spur search unchanged — the ban set at
		// (root, i) only grows when an accepted path deviates at i, and
		// that acceptance reran the spur itself — so the result is an
		// exact duplicate the seen-set would reject. Skipping them is
		// output-identical and removes roughly half the spur searches.
		for i := devs[len(devs)-1]; i+1 < len(prev); i++ {
			spur := prev[i]
			root := prev[:i+1]

			// Spur bans live in the scratch stamp arrays: ensureBans opens
			// a fresh ban generation (Yen runs one spur per prefix per
			// accepted path; this is the algorithm's hot loop, and the
			// channel-index ban set replaces a map[DirEdge] allocated per
			// spur).
			sc.ensureBans(g)
			for _, p := range accepted {
				if len(p) > i && samePrefix(p, root) {
					sc.banEdge(g.ChannelIndex(p[i], p[i+1]), p[i], p[i+1])
				}
			}
			for _, u := range root[:len(root)-1] {
				sc.banNode(u)
			}

			spurPath := sc.search(g, spur, t, usable, cu, true, 0)
			if spurPath == nil {
				continue
			}
			total := make([]topo.NodeID, 0, len(root)+len(spurPath)-1)
			total = append(total, root...)
			total = append(total, spurPath[1:]...)
			if !rememberPath(&seen, total) {
				continue
			}
			heap.Push(cands, yenCand{path: total, dev: i})
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

func samePrefix(p, prefix []topo.NodeID) bool {
	if len(p) < len(prefix) {
		return false
	}
	for i, u := range prefix {
		if p[i] != u {
			return false
		}
	}
	return true
}

// seenPath is a path a Yen run has produced — accepted or still a
// candidate — beside its FNV-1a key.
type seenPath struct {
	key  uint64
	path []topo.NodeID
}

// pathKey hashes a path with FNV-1a for candidate deduplication;
// rememberPath resolves the (astronomically rare) collisions exactly.
func pathKey(p []topo.NodeID) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, u := range p {
		h ^= uint64(uint32(u))
		h *= prime64
	}
	return h
}

// rememberPath appends the path to the seen set, reporting whether it was
// new. A run sees a few dozen paths at most, so the set is one flat slice
// scanned by key, with the paths compared only on a key match.
func rememberPath(seen *[]seenPath, p []topo.NodeID) bool {
	key := pathKey(p)
	for _, q := range *seen {
		if q.key == key && pathsEqual(p, q.path) {
			return false
		}
	}
	*seen = append(*seen, seenPath{key, p})
	return true
}

func pathsEqual(a, b []topo.NodeID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// yenCand is a candidate path plus the spur index it deviated at from
// the accepted path it was generated from (Lawler's optimisation needs
// the deviation point back when the candidate is accepted).
type yenCand struct {
	path []topo.NodeID
	dev  int
}

// candHeap orders candidate paths by length, then lexicographically.
type candHeap []yenCand

func (h candHeap) Len() int { return len(h) }
func (h candHeap) Less(i, j int) bool {
	if len(h[i].path) != len(h[j].path) {
		return len(h[i].path) < len(h[j].path)
	}
	for x := range h[i].path {
		if h[i].path[x] != h[j].path[x] {
			return h[i].path[x] < h[j].path[x]
		}
	}
	return false
}
func (h candHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *candHeap) Push(x any)   { *h = append(*h, x.(yenCand)) }
func (h *candHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}
