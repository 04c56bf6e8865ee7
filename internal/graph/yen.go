package graph

import (
	"slices"

	"repro/internal/topo"
)

// YenKSP returns up to k loopless minimum-hop paths from s to t in
// non-decreasing hop order, using Yen's algorithm (Yen 1971) over BFS
// shortest paths. Ties between equal-length paths break lexicographically
// on node IDs, so output is deterministic. It is the node form of Yen:
// the same run, its paths copied out without their channels.
func YenKSP(g *topo.Graph, s, t topo.NodeID, k int) [][]topo.NodeID {
	sc := AcquireScratch()
	defer ReleaseScratch(sc)
	return sc.yenNodes(g, s, t, k, nil)
}

// Yen is YenKSP for hop paths, restricted to directed hops that pass
// usable (nil: every hop): every hop of every path it finds passes the
// predicate. It appends the paths to paths and their elements to arena,
// and returns both: each path is a window of arena whose capacity ends
// with it (topo.Path.AppendTo), and with room in both buffers a run on a
// warm Scratch allocates nothing. Flash's routing table appends into its
// topo.PathArena, and its speculative probe pipeline draws each round's
// candidate set from the sender's residual knowledge graph into its
// probed state — the BFS shortest path plus edge-avoidance spur
// deviations, all distinct and all deterministic for a fixed graph and
// predicate.
func Yen(g *topo.Graph, s, t topo.NodeID, k int, usable Usable, paths []topo.Path, arena []topo.NodeID) ([]topo.Path, []topo.NodeID) {
	sc := AcquireScratch()
	defer ReleaseScratch(sc)
	return sc.yenPaths(g, s, t, k, usable, paths, arena)
}

// yenNodes runs Yen on sc and copies the accepted paths out as node
// paths, without their channels: on a warm Scratch, one allocation for
// the nodes and one for the slice headers.
func (sc *Scratch) yenNodes(g *topo.Graph, s, t topo.NodeID, k int, usable Usable) [][]topo.NodeID {
	if sc.yenKSP(g, s, t, k, usable) == 0 {
		return nil
	}
	size := 0
	for _, p := range sc.yen.accepted {
		size += p.Hops() + 1
	}
	flat := make([]topo.NodeID, 0, size)
	out := make([][]topo.NodeID, len(sc.yen.accepted))
	for i, p := range sc.yen.accepted {
		start := len(flat)
		flat = append(flat, p.Nodes()...)
		out[i] = flat[start:len(flat):len(flat)]
	}
	return out
}

// yenPaths runs Yen on sc and appends the accepted hop paths to paths and
// their elements to arena, growing each at most once.
func (sc *Scratch) yenPaths(g *topo.Graph, s, t topo.NodeID, k int, usable Usable, paths []topo.Path, arena []topo.NodeID) ([]topo.Path, []topo.NodeID) {
	n := sc.yenKSP(g, s, t, k, usable)
	size := 0
	for _, p := range sc.yen.accepted[:n] {
		size += p.Len()
	}
	paths, arena = slices.Grow(paths, n), slices.Grow(arena, size)
	for _, p := range sc.yen.accepted[:n] {
		p, arena = p.AppendTo(arena)
		paths = append(paths, p)
	}
	return paths, arena
}

// yenKSP runs Yen's algorithm on sc and returns how many paths it
// accepted, in sc.yen.accepted. The first search and every spur search
// head for the same t, so they all prune against one reverse tree. Every
// path the run produces — accepted or still a candidate — is a hop path
// in the Scratch's yen arena, which only grows within a run, so a path
// carved from it stays valid after later growth moves the arena. Spur
// bans are by the channels the accepted paths carry.
func (sc *Scratch) yenKSP(g *topo.Graph, s, t topo.NodeID, k int, usable Usable) int {
	if k <= 0 {
		return 0
	}
	first := sc.search(g, s, t, usable, false, 0)
	if first == nil {
		return 0
	}
	y := &sc.yen
	y.reset()
	_, _, chans := g.AdjacencyView()
	firstPath := sc.keep(chans, topo.Path{}, 0)
	y.accepted = append(y.accepted, firstPath)
	y.devs = append(y.devs, 0) // devs[j] = spur index accepted[j] deviated at
	y.seen = append(y.seen, seenPath{pathKey(firstPath.Nodes()), firstPath})

	for len(y.accepted) < k {
		prev := y.accepted[len(y.accepted)-1]
		prevNodes := prev.Nodes()
		// Lawler's optimisation: spur indices below prev's own deviation
		// point rerun an earlier spur search unchanged — the ban set at
		// (root, i) only grows when an accepted path deviates at i, and
		// that acceptance reran the spur itself — so the result is an
		// exact duplicate the seen-set would reject. Skipping them is
		// output-identical and removes roughly half the spur searches.
		for i := y.devs[len(y.devs)-1]; i+1 < len(prevNodes); i++ {
			spur := prevNodes[i]
			root := prevNodes[:i+1]

			// Spur bans live in the scratch stamp arrays: ensureBans opens
			// a fresh ban generation (Yen runs one spur per prefix per
			// accepted path; this is the algorithm's hot loop, and the
			// channel-index ban set replaces a map[DirEdge] allocated per
			// spur).
			sc.ensureBans(g)
			for _, p := range y.accepted {
				if samePrefix(p.Nodes(), root) {
					u, v, ch := p.Hop(i)
					sc.banEdge(ch, u, v)
				}
			}
			for _, u := range root[:len(root)-1] {
				sc.banNode(u)
			}

			if sc.search(g, spur, t, usable, true, 0) == nil {
				continue
			}
			n := len(y.arena)
			total := sc.keep(chans, prev, i)
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
	return len(y.accepted)
}

// yenState is the working memory of one Yen run, kept in the Scratch so
// a warm run reuses it: the arena every produced path is carved from,
// the accepted paths with their deviation points, the seen set and the
// candidate heap.
type yenState struct {
	arena    []topo.NodeID
	accepted []topo.Path
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

// keep appends to the yen arena the hop path that runs along the first i
// hops of prev and then along the path the last search left on the stack
// (see join), and returns it.
func (sc *Scratch) keep(chans []int32, prev topo.Path, i int) topo.Path {
	var p topo.Path
	p, sc.yen.arena = sc.join(chans, prev, i, sc.path, sc.yen.arena)
	return p
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
	path topo.Path
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
func rememberPath(seen *[]seenPath, p topo.Path) bool {
	key := pathKey(p.Nodes())
	for _, q := range *seen {
		if q.key == key && q.path.Equal(p) {
			return false
		}
	}
	*seen = append(*seen, seenPath{key, p})
	return true
}

// yenCand is a candidate path plus the spur index it deviated at from
// the accepted path it was generated from (Lawler's optimisation needs
// the deviation point back when the candidate is accepted).
type yenCand struct {
	path topo.Path
	dev  int
}

// candHeap is a binary min-heap of candidate paths ordered by length,
// then lexicographically on their nodes (a hop path's channels follow
// from its nodes). Candidates are distinct paths (the seen set rejects
// duplicates), so the order is total and the pop sequence is the same for
// any correct heap.
type candHeap []yenCand

func (h candHeap) Less(i, j int) bool {
	a, b := h[i].path.Nodes(), h[j].path.Nodes()
	if len(a) != len(b) {
		return len(a) < len(b)
	}
	for x := range a {
		if a[x] != b[x] {
			return a[x] < b[x]
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
