package baseline

import (
	"sort"

	"repro/internal/graph"
	"repro/internal/route"
	"repro/internal/topo"
)

// Spider is the paper's state-of-the-art comparison point (§4.1): for
// every payment it probes a fixed set of edge-disjoint shortest paths
// and splits the payment across them with a waterfilling heuristic,
// "balancing paths by using those with maximum available capacity".
//
// Spider treats all payments identically — it probes its paths on every
// payment, which is exactly the overhead Flash's mice routing avoids
// (Figure 8). Its path selection is static, though: the path set
// depends only on the topology, so it is computed once per
// sender/receiver pair and kept in the router's path table.
type Spider struct {
	pathTable[[]topo.Path]
}

// spiderPaths is the number of edge-disjoint shortest paths Spider
// splits a payment across (§4.1).
const spiderPaths = 4

// NewSpider returns a Spider router.
func NewSpider() *Spider { return &Spider{} }

// Name implements route.Router.
func (sp *Spider) Name() string { return "Spider" }

// find returns the edge-disjoint shortest path set from s to t on g.
func (sp *Spider) find(g *topo.Graph, s, t topo.NodeID) []topo.Path {
	return graph.EdgeDisjointPaths(g, s, t, spiderPaths)
}

// Route implements route.Router: probe all paths, waterfill the demand
// across their bottleneck capacities, hold, and commit.
func (sp *Spider) Route(s route.Session) error {
	paths := sp.get(s.Graph(), s.Sender(), s.Receiver(), sp.find)
	if len(paths) == 0 {
		if err := s.Abort(); err != nil {
			return err
		}
		return route.ErrNoRoute
	}
	caps := make([]float64, len(paths))
	for i, p := range paths {
		info, err := route.Probe(s, p)
		if err != nil {
			continue
		}
		caps[i] = route.MinAvailable(info)
	}
	alloc := Waterfill(caps, s.Demand())
	if alloc == nil {
		if err := s.Abort(); err != nil {
			return err
		}
		return route.ErrInsufficient
	}
	remaining := s.Demand()
	for i, amount := range alloc {
		if amount <= route.Epsilon || remaining <= route.Epsilon {
			continue
		}
		if amount > remaining {
			amount = remaining
		}
		held := route.HoldUpTo(s, paths[i], amount)
		remaining -= held
	}
	return route.Finish(s, route.ErrInsufficient)
}

// Waterfill splits demand across paths with the given capacities so
// that the *remaining* capacities are as equal as possible: the
// allocation is x_i = max(0, c_i − L) with the water level L chosen so
// Σx_i = demand. Returns nil when Σc_i < demand (infeasible). This is
// the waterfilling heuristic Spider uses to balance path utilisation.
func Waterfill(caps []float64, demand float64) []float64 {
	n := len(caps)
	total := 0.0
	for _, c := range caps {
		total += c
	}
	if total < demand-route.Epsilon || n == 0 {
		return nil
	}
	// Sort capacity indices descending; the level L sits between two
	// consecutive capacities.
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return caps[idx[a]] > caps[idx[b]] })

	cum := 0.0
	level := 0.0
	for k := 1; k <= n; k++ {
		cum += caps[idx[k-1]]
		l := (cum - demand) / float64(k)
		next := 0.0
		if k < n {
			next = caps[idx[k]]
		}
		if l >= next-route.Epsilon {
			level = l
			break
		}
	}
	if level < 0 {
		level = 0
	}
	alloc := make([]float64, n)
	allocated := 0.0
	for _, i := range idx {
		x := caps[i] - level
		if x < 0 {
			x = 0
		}
		alloc[i] = x
		allocated += x
	}
	// Normalise rounding drift so the allocation sums exactly to demand.
	if allocated > 0 {
		scale := demand / allocated
		for i := range alloc {
			alloc[i] *= scale
			if alloc[i] > caps[i] {
				alloc[i] = caps[i]
			}
		}
	}
	return alloc
}
