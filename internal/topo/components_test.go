package topo

import (
	"math/rand"
	"sort"
	"testing"
)

// componentOfRef is the one-component search Components replaced: a
// breadth-first search from start into a fresh n-sized seen array,
// returned sorted.
func componentOfRef(g *Graph, start NodeID) []NodeID {
	seen := make([]bool, g.NumNodes())
	queue := []NodeID{start}
	seen[start] = true
	var comp []NodeID
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		comp = append(comp, u)
		for _, v := range g.Neighbors(u) {
			if !seen[v] {
				seen[v] = true
				queue = append(queue, v)
			}
		}
	}
	sort.Slice(comp, func(i, j int) bool { return comp[i] < comp[j] })
	return comp
}

// componentsRef is the labelling built from componentOfRef, one search
// per component: O(n·components).
func componentsRef(g *Graph) []int {
	comp := make([]int, g.NumNodes())
	for i := range comp {
		comp[i] = -1
	}
	id := 0
	for u := range comp {
		if comp[u] != -1 {
			continue
		}
		for _, v := range componentOfRef(g, NodeID(u)) {
			comp[v] = id
		}
		id++
	}
	return comp
}

// scatteredUnion lays the parts' channels and isolated extra nodes
// over one graph under a random node relabelling, so components
// interleave in the ID space.
func scatteredUnion(rng *rand.Rand, isolated int, parts ...*Graph) *Graph {
	n := isolated
	for _, p := range parts {
		n += p.NumNodes()
	}
	perm := rng.Perm(n)
	g := New(n)
	base := 0
	for _, p := range parts {
		for _, e := range p.Channels() {
			g.MustAddChannel(NodeID(perm[base+int(e.A)]), NodeID(perm[base+int(e.B)]))
		}
		base += p.NumNodes()
	}
	return g
}

// TestComponentsMatchesReference: over random Barabási–Albert and
// Watts–Strogatz graphs, alone and scattered among isolated nodes and
// each other, the one-pass labelling gives every node the label the
// per-component searches gave it, so it partitions the nodes the same
// way.
func TestComponentsMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ba, err := BarabasiAlbert(20+rng.Intn(200), 1+rng.Intn(3), rng)
		if err != nil {
			t.Fatal(err)
		}
		ws, err := WattsStrogatz(20+rng.Intn(200), 2*(1+rng.Intn(3)), rng.Float64(), rng)
		if err != nil {
			t.Fatal(err)
		}
		sparse, err := WattsStrogatz(60, 2, 1, rng) // rewired ring: often split
		if err != nil {
			t.Fatal(err)
		}
		cases := map[string]*Graph{
			"ba":              ba,
			"ws":              ws,
			"ba+isolated":     scatteredUnion(rng, 1+rng.Intn(50), ba),
			"ba+ws+line+iso":  scatteredUnion(rng, rng.Intn(20), ba, ws, Line(7), Line(2)),
			"sparse+isolated": scatteredUnion(rng, 5, sparse, sparse),
			"all isolated":    New(9),
		}
		for name, g := range cases {
			got, want := g.Components(), componentsRef(g)
			for u := range got {
				if got[u] != want[u] {
					t.Fatalf("seed %d %s: node %d labelled %d, reference %d", seed, name, u, got[u], want[u])
				}
			}
		}
	}
}

// TestComponentsAllocs pins the one-pass labelling's allocations: a
// label array and a queue, however many components there are. The
// reference allocated a seen array and a result per component (5,001
// components here).
func TestComponentsAllocs(t *testing.T) {
	core, err := BarabasiAlbert(5000, 2, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	g := scatteredUnion(rand.New(rand.NewSource(2)), 5000, core)
	g.Freeze()
	labels := g.Components()
	distinct := map[int]bool{}
	for _, l := range labels {
		distinct[l] = true
	}
	if len(distinct) != 5001 {
		t.Fatalf("%d components, want 5001 (one core, 5000 isolated)", len(distinct))
	}
	if allocs := testing.AllocsPerRun(5, func() { g.Components() }); allocs > 2 {
		t.Errorf("Components allocates %v times, want at most 2", allocs)
	}
}
