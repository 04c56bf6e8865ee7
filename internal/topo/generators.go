package topo

import (
	"fmt"
	"math/rand"
)

// Ring returns a cycle of n nodes.
//
//flashvet:allow testonly/unused test fixture of the graph, pcn, baseline, sim, node, trace and testbed tests and of benchmark/harness's
func Ring(n int) *Graph {
	g := New(n)
	for i := 0; i < n; i++ {
		g.MustAddChannel(NodeID(i), NodeID((i+1)%n))
	}
	return g
}

// Line returns a path graph of n nodes 0-1-…-(n-1).
//
//flashvet:allow testonly/unused test fixture of the graph, pcn, route, baseline, sim, node and testbed tests and of cmd/flashnode's
func Line(n int) *Graph {
	g := New(n)
	for i := 0; i+1 < n; i++ {
		g.MustAddChannel(NodeID(i), NodeID(i+1))
	}
	return g
}

// Complete returns the complete graph on n nodes.
//
//flashvet:allow testonly/unused test fixture of the topo and graph tests
func Complete(n int) *Graph {
	g := New(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			g.MustAddChannel(NodeID(i), NodeID(j))
		}
	}
	return g
}

// WattsStrogatz generates a small-world graph per Watts & Strogatz
// (1998), the topology used by the paper's testbed (§5.2): a ring
// lattice of n nodes each joined to its k nearest neighbours (k even),
// with each lattice edge rewired to a random endpoint with probability
// beta. Rewiring never introduces self-loops or duplicate channels.
func WattsStrogatz(n, k int, beta float64, rng *rand.Rand) (*Graph, error) {
	if k%2 != 0 || k <= 0 {
		return nil, fmt.Errorf("topo: Watts-Strogatz k must be positive and even, got %d", k)
	}
	if n <= k {
		return nil, fmt.Errorf("topo: Watts-Strogatz needs n > k, got n=%d k=%d", n, k)
	}
	if beta < 0 || beta > 1 {
		return nil, fmt.Errorf("topo: Watts-Strogatz beta must be in [0,1], got %v", beta)
	}
	g := New(n)
	for i := 0; i < n; i++ {
		for j := 1; j <= k/2; j++ {
			target := NodeID((i + j) % n)
			src := NodeID(i)
			if beta > 0 && rng.Float64() < beta {
				// Rewire the far endpoint uniformly, avoiding loops and
				// duplicates; give up after a few tries on dense graphs.
				for attempt := 0; attempt < 16; attempt++ {
					cand := NodeID(rng.Intn(n))
					if cand != src && !g.HasChannel(src, cand) {
						target = cand
						break
					}
				}
			}
			if !g.HasChannel(src, target) {
				g.MustAddChannel(src, target)
			}
		}
	}
	return g, nil
}

// BarabasiAlbert generates a scale-free graph by preferential
// attachment: starting from a small clique, each new node attaches m
// channels to existing nodes with probability proportional to degree.
// The paper's Ripple and Lightning crawls have heavy-tailed degree
// distributions that this model reproduces.
func BarabasiAlbert(n, m int, rng *rand.Rand) (*Graph, error) {
	if m < 1 {
		return nil, fmt.Errorf("topo: Barabasi-Albert m must be ≥ 1, got %d", m)
	}
	if n <= m {
		return nil, fmt.Errorf("topo: Barabasi-Albert needs n > m, got n=%d m=%d", n, m)
	}
	g := New(n)
	// Seed clique of m+1 nodes keeps the graph connected from the start.
	for i := 0; i <= m; i++ {
		for j := i + 1; j <= m; j++ {
			g.MustAddChannel(NodeID(i), NodeID(j))
		}
	}
	// targets holds one entry per channel endpoint, so uniform sampling
	// from it is degree-proportional sampling.
	var targets []NodeID
	for _, e := range g.Channels() {
		targets = append(targets, e.A, e.B)
	}
	for v := m + 1; v < n; v++ {
		chosen := make(map[NodeID]bool, m)
		picked := make([]NodeID, 0, m)
		for len(chosen) < m {
			cand := targets[rng.Intn(len(targets))]
			if cand != NodeID(v) && !chosen[cand] {
				chosen[cand] = true
				picked = append(picked, cand)
			}
		}
		// Attach in draw order, never map order: a generator that takes
		// an explicit rng must be a pure function of it, and map
		// iteration would scramble channel indices (and every subsequent
		// degree-proportional draw) from process to process.
		for _, u := range picked {
			g.MustAddChannel(NodeID(v), u)
			targets = append(targets, NodeID(v), u)
		}
	}
	return g, nil
}

// RippleLike generates a scale-free topology with the node count and
// channel density of the paper's processed Ripple crawl (1,870 nodes,
// 17,416 directed edges ⇒ 8,708 channels, average degree ≈ 9.3). Scale
// n down proportionally for faster experiments.
func RippleLike(n int, rng *rand.Rand) (*Graph, error) {
	if n < 12 {
		return nil, fmt.Errorf("topo: RippleLike needs at least 12 nodes, got %d", n)
	}
	return BarabasiAlbert(n, 5, rng)
}

// LightningLike generates a scale-free topology matching the paper's
// December-2018 Lightning snapshot (2,511 nodes, 36,016 directed edges ⇒
// ≈18,008 channels, average degree ≈ 14.3).
func LightningLike(n int, rng *rand.Rand) (*Graph, error) {
	if n < 16 {
		return nil, fmt.Errorf("topo: LightningLike needs at least 16 nodes, got %d", n)
	}
	return BarabasiAlbert(n, 7, rng)
}
