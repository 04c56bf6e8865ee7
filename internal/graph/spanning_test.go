package graph

import (
	"math/rand"
	"testing"

	"repro/internal/topo"
)

// distancesRef is the separate hop-distance BFS SpanningTree's depth
// array replaced; -1 marks unreachable nodes.
func distancesRef(g *topo.Graph, src topo.NodeID) []int {
	dist := make([]int, g.NumNodes())
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue := []topo.NodeID{src}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range g.Neighbors(u) {
			if dist[v] == -1 {
				dist[v] = dist[u] + 1
				queue = append(queue, v)
			}
		}
	}
	return dist
}

// parentsRef is the parent-only BFS SpanningTree was before it also
// returned depths.
func parentsRef(g *topo.Graph, root topo.NodeID) []topo.NodeID {
	parent := make([]topo.NodeID, g.NumNodes())
	for i := range parent {
		parent[i] = -1
	}
	parent[root] = root
	queue := []topo.NodeID{root}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range g.Neighbors(u) {
			if parent[v] == -1 {
				parent[v] = u
				queue = append(queue, v)
			}
		}
	}
	return parent
}

// withIsolated lays the parts' channels and isolated extra nodes over
// one graph under a random node relabelling, so components interleave
// in the ID space.
func withIsolated(rng *rand.Rand, isolated int, parts ...*topo.Graph) *topo.Graph {
	n := isolated
	for _, p := range parts {
		n += p.NumNodes()
	}
	perm := rng.Perm(n)
	g := topo.New(n)
	base := 0
	for _, p := range parts {
		for _, e := range p.Channels() {
			g.MustAddChannel(topo.NodeID(perm[base+int(e.A)]), topo.NodeID(perm[base+int(e.B)]))
		}
		base += p.NumNodes()
	}
	return g
}

// TestSpanningTreeMatchesReference: over random Barabási–Albert and
// Watts–Strogatz graphs, alone and scattered among isolated nodes and
// each other, SpanningTree's one pass gives the parent array of the
// parent-only search and a depth array equal to the separate distance
// search, from every kind of root (hub, leaf, isolated node).
func TestSpanningTreeMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ba, err := topo.BarabasiAlbert(20+rng.Intn(150), 1+rng.Intn(3), rng)
		if err != nil {
			t.Fatal(err)
		}
		ws, err := topo.WattsStrogatz(20+rng.Intn(150), 2*(1+rng.Intn(3)), rng.Float64(), rng)
		if err != nil {
			t.Fatal(err)
		}
		cases := map[string]*topo.Graph{
			"ba":          ba,
			"ws":          ws,
			"ba+isolated": withIsolated(rng, 1+rng.Intn(30), ba),
			"ba+ws+line":  withIsolated(rng, rng.Intn(10), ba, ws, topo.Line(5)),
		}
		for name, g := range cases {
			for r := 0; r < 8; r++ {
				root := topo.NodeID(rng.Intn(g.NumNodes()))
				parent, depth := SpanningTree(g, root)
				wantParent, wantDepth := parentsRef(g, root), distancesRef(g, root)
				for v := range parent {
					if parent[v] != wantParent[v] || depth[v] != wantDepth[v] {
						t.Fatalf("seed %d %s root %d node %d: parent %d depth %d, reference %d and %d",
							seed, name, root, v, parent[v], depth[v], wantParent[v], wantDepth[v])
					}
				}
			}
		}
	}
}
