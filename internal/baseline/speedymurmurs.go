package baseline

import (
	"sort"

	"repro/internal/graph"
	"repro/internal/route"
	"repro/internal/topo"
)

// SpeedyMurmurs is the embedding-based static baseline (§4.1, Roos et
// al. NDSS'18): spanning trees are grown from a few landmark nodes and
// every node receives a prefix coordinate per tree; payments are split
// into equal shards, one per landmark, and each shard is forwarded
// greedily to the neighbour closest (in tree distance) to the receiver
// that has sufficient local balance. There is no probing: forwarding
// decisions use only knowledge a node has of its own channels — which is
// why the scheme is cheap but blind to remote depletion.
type SpeedyMurmurs struct {
	graph *topo.Graph
	emb   *embedding
}

// embedding holds per-landmark spanning trees and node depths.
type embedding struct {
	parent [][]topo.NodeID // [tree][node] BFS-tree parent
	depth  [][]int         // [tree][node] depth, -1 when unreachable
}

// speedyLandmarks is the number of landmark trees (the paper uses 3,
// following the original work).
const speedyLandmarks = 3

// NewSpeedyMurmurs returns the baseline.
func NewSpeedyMurmurs() *SpeedyMurmurs { return &SpeedyMurmurs{} }

// Name implements route.Router.
func (sm *SpeedyMurmurs) Name() string { return "SpeedyMurmurs" }

// embeddingFor lazily builds (and caches) the landmark trees for g.
// Landmarks are the highest-degree nodes — well-connected roots keep
// tree paths short, matching the original scheme's guidance.
func (sm *SpeedyMurmurs) embeddingFor(g *topo.Graph) *embedding {
	if sm.graph == g && sm.emb != nil {
		return sm.emb
	}
	n := g.NumNodes()
	order := make([]topo.NodeID, n)
	for i := range order {
		order[i] = topo.NodeID(i)
	}
	sort.Slice(order, func(a, b int) bool {
		da, db := g.Degree(order[a]), g.Degree(order[b])
		if da != db {
			return da > db
		}
		return order[a] < order[b]
	})
	trees := min(speedyLandmarks, n)
	emb := &embedding{
		parent: make([][]topo.NodeID, trees),
		depth:  make([][]int, trees),
	}
	for i := 0; i < trees; i++ {
		root := order[i]
		emb.parent[i], emb.depth[i] = graph.SpanningTree(g, root)
	}
	sm.graph = g
	sm.emb = emb
	return emb
}

// treeDist returns the tree distance between u and v in tree i:
// depth(u) + depth(v) − 2·depth(lca). Unreachable nodes are infinitely
// far (returned as a large constant).
func (e *embedding) treeDist(i int, u, v topo.NodeID) int {
	const unreachable = 1 << 30
	du, dv := e.depth[i][u], e.depth[i][v]
	if du < 0 || dv < 0 {
		return unreachable
	}
	// Walk the deeper node up to equal depth, then both together.
	a, b, da, db := u, v, du, dv
	for da > db {
		a = e.parent[i][a]
		da--
	}
	for db > da {
		b = e.parent[i][b]
		db--
	}
	for a != b {
		a = e.parent[i][a]
		b = e.parent[i][b]
		da--
	}
	return (du - da) + (dv - da)
}

// Route implements route.Router: split the payment into one equal shard
// per landmark tree and forward each greedily. A payment succeeds only
// if every shard finds a path — atomicity over shards, as with AMP.
func (sm *SpeedyMurmurs) Route(s route.Session) error {
	emb := sm.embeddingFor(s.Graph())
	trees := len(emb.parent)
	shard := s.Demand() / float64(trees)

	paths := make([][]topo.NodeID, 0, trees)
	for i := 0; i < trees; i++ {
		p := sm.greedyPath(s, emb, i, shard)
		if p == nil {
			if err := s.Abort(); err != nil {
				return err
			}
			return route.ErrInsufficient
		}
		paths = append(paths, p)
	}
	for _, p := range paths {
		if err := s.Hold(p, shard); err != nil {
			// A later shard exhausted a channel an earlier one reserved.
			if aerr := s.Abort(); aerr != nil {
				return aerr
			}
			return route.ErrInsufficient
		}
	}
	return route.Finish(s, route.ErrInsufficient)
}

// greedyPath forwards hop by hop in tree i: from the current node, move
// to the neighbour with strictly smaller tree distance to the receiver
// whose local channel balance covers the shard; ties break towards the
// smaller node ID. Strictly decreasing distance guarantees loop-free
// termination. Returns nil when stuck.
func (sm *SpeedyMurmurs) greedyPath(s route.Session, emb *embedding, i int, shard float64) []topo.NodeID {
	g := s.Graph()
	cur := s.Sender()
	target := s.Receiver()
	path := []topo.NodeID{cur}
	curDist := emb.treeDist(i, cur, target)
	for cur != target {
		best := topo.NodeID(-1)
		bestDist := curDist
		for _, w := range g.Neighbors(cur) {
			d := emb.treeDist(i, w, target)
			if d >= bestDist {
				continue
			}
			if s.LocalBalance(cur, w) < shard {
				continue
			}
			if best == -1 || d < bestDist || w < best {
				best = w
				bestDist = d
			}
		}
		if best == -1 {
			return nil
		}
		cur = best
		curDist = bestDist
		path = append(path, cur)
	}
	return path
}
