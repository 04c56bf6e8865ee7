package graph

import (
	"math"

	"repro/internal/topo"
)

// Capacity reports the usable capacity of the directed hop u→v. Hops
// over non-existent channels must return 0.
type Capacity func(u, v topo.NodeID) float64

// FlowResult is the outcome of a max-flow computation.
type FlowResult struct {
	Value float64             // total s→t flow
	Flow  map[DirEdge]float64 // net flow per directed hop (≥ 0 entries only)
	Paths [][]topo.NodeID     // augmenting paths in discovery order
}

// MaxFlow computes the maximum s→t flow with the classic Edmonds–Karp
// algorithm (BFS augmenting paths on the residual graph), given full
// knowledge of every channel's directed capacity. This is the unmodified
// algorithm the paper starts from; the Flash contribution in package
// core bounds it to k paths and probes capacities lazily. maxPaths < 0
// means unbounded; demand < 0 means "find the true maximum".
//
// The residual graph includes reverse residual arcs, so later augmenting
// paths may cancel flow placed by earlier ones — exactly why a bounded
// variant still finds near-optimal flow quickly on PCN topologies.
func MaxFlow(g *topo.Graph, s, t topo.NodeID, cap Capacity, maxPaths int, demand float64) FlowResult {
	res := FlowResult{Flow: make(map[DirEdge]float64)}
	if s == t {
		return res
	}
	residual := make(map[DirEdge]float64)
	capOf := func(u, v topo.NodeID) float64 {
		e := DirEdge{U: u, V: v}
		if r, ok := residual[e]; ok {
			return r
		}
		c := cap(u, v)
		residual[e] = c
		return c
	}
	for maxPaths < 0 || len(res.Paths) < maxPaths {
		if demand >= 0 && res.Value >= demand {
			break
		}
		path := ShortestPath(g, s, t, func(u, v topo.NodeID, _ int32) bool {
			return capOf(u, v) > 0
		})
		if path == nil {
			break
		}
		bottleneck := math.Inf(1)
		for _, e := range PathEdges(path) {
			if r := capOf(e.U, e.V); r < bottleneck {
				bottleneck = r
			}
		}
		if bottleneck <= 0 || math.IsInf(bottleneck, 1) {
			break
		}
		if demand >= 0 && res.Value+bottleneck > demand {
			bottleneck = demand - res.Value
		}
		for _, e := range PathEdges(path) {
			residual[e] = capOf(e.U, e.V) - bottleneck
			residual[e.Reverse()] = capOf(e.V, e.U) + bottleneck
		}
		res.Value += bottleneck
		res.Paths = append(res.Paths, path)
	}
	// Net flow per hop = original capacity − residual, clipped at 0 so
	// each channel direction appears once.
	for e, r := range residual {
		orig := cap(e.U, e.V)
		if net := orig - r; net > 1e-12 {
			res.Flow[e] = net
		}
	}
	return res
}
