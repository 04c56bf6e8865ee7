package graph

import (
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
// Every path the run produces — accepted or still a candidate — lives in
// the Scratch's yen arena, which only grows within a run, so a path
// carved from it stays valid after later growth moves the arena. Only
// the accepted paths are copied out, into one flat backing array: a run
// on a warm Scratch allocates that array and the slice headers.
func (sc *Scratch) yenKSP(g *topo.Graph, s, t topo.NodeID, k int, usable Usable, cu ChUsable) [][]topo.NodeID {
	if k <= 0 {
		return nil
	}
	first := sc.search(g, s, t, usable, cu, false, 0)
	if first == nil {
		return nil
	}
	y := &sc.yen
	y.reset()
	first = y.keep(first, nil)
	y.accepted = append(y.accepted, first)
	y.devs = append(y.devs, 0) // devs[j] = spur index accepted[j] deviated at
	y.seen = append(y.seen, seenPath{pathKey(first), first})

	for len(y.accepted) < k {
		prev := y.accepted[len(y.accepted)-1]
		// Lawler's optimisation: spur indices below prev's own deviation
		// point rerun an earlier spur search unchanged — the ban set at
		// (root, i) only grows when an accepted path deviates at i, and
		// that acceptance reran the spur itself — so the result is an
		// exact duplicate the seen-set would reject. Skipping them is
		// output-identical and removes roughly half the spur searches.
		for i := y.devs[len(y.devs)-1]; i+1 < len(prev); i++ {
			spur := prev[i]
			root := prev[:i+1]

			// Spur bans live in the scratch stamp arrays: ensureBans opens
			// a fresh ban generation (Yen runs one spur per prefix per
			// accepted path; this is the algorithm's hot loop, and the
			// channel-index ban set replaces a map[DirEdge] allocated per
			// spur).
			sc.ensureBans(g)
			for _, p := range y.accepted {
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
			n := len(y.arena)
			total := y.keep(root, spurPath[1:])
			if !rememberPath(&y.seen, total) {
				y.arena = y.arena[:n]
				continue
			}
			y.cands.push(yenCand{path: total, dev: i})
		}
		if len(y.cands) == 0 {
			break
		}
		c := y.cands.pop()
		y.accepted = append(y.accepted, c.path)
		y.devs = append(y.devs, c.dev)
	}
	return y.copyOut()
}

// yenState is the working memory of one Yen run, kept in the Scratch so
// a warm run reuses it: the arena every produced path is carved from,
// the accepted paths with their deviation points, the seen set and the
// candidate heap.
type yenState struct {
	arena    []topo.NodeID
	accepted [][]topo.NodeID
	devs     []int
	seen     []seenPath
	cands    candHeap
}

// reset empties the state for a new run. Entries are cleared, not just
// truncated, so an arena array that an earlier run outgrew does not stay
// reachable from stale entries past the end.
func (y *yenState) reset() {
	y.arena = y.arena[:0]
	clear(y.accepted)
	y.accepted = y.accepted[:0]
	y.devs = y.devs[:0]
	clear(y.seen)
	y.seen = y.seen[:0]
	clear(y.cands)
	y.cands = y.cands[:0]
}

// keep appends a followed by b to the arena and returns them as one path
// whose capacity ends with it, so no append through it can reach a later
// path.
func (y *yenState) keep(a, b []topo.NodeID) []topo.NodeID {
	n := len(y.arena)
	y.arena = append(append(y.arena, a...), b...)
	return y.arena[n:len(y.arena):len(y.arena)]
}

// copyOut returns the accepted paths in one allocation for the nodes and
// one for the slice headers, detached from the arena.
func (y *yenState) copyOut() [][]topo.NodeID {
	size := 0
	for _, p := range y.accepted {
		size += len(p)
	}
	flat := make([]topo.NodeID, 0, size)
	out := make([][]topo.NodeID, len(y.accepted))
	for i, p := range y.accepted {
		n := len(flat)
		flat = append(flat, p...)
		out[i] = flat[n:len(flat):len(flat)]
	}
	return out
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

// candHeap is a binary min-heap of candidate paths ordered by length,
// then lexicographically. Candidates are distinct paths (the seen set
// rejects duplicates), so the order is total and the pop sequence is the
// same for any correct heap.
type candHeap []yenCand

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

// push adds c to the heap.
func (h *candHeap) push(c yenCand) {
	*h = append(*h, c)
	q := *h
	for j := len(q) - 1; j > 0; {
		i := (j - 1) / 2
		if !q.Less(j, i) {
			break
		}
		q.Swap(i, j)
		j = i
	}
}

// pop removes and returns the least candidate.
func (h *candHeap) pop() yenCand {
	q := *h
	n := len(q) - 1
	q.Swap(0, n)
	for i := 0; ; {
		j := 2*i + 1
		if j >= n {
			break
		}
		if r := j + 1; r < n && q.Less(r, j) {
			j = r
		}
		if !q.Less(j, i) {
			break
		}
		q.Swap(i, j)
		i = j
	}
	c := q[n]
	q[n] = yenCand{}
	*h = q[:n]
	return c
}
