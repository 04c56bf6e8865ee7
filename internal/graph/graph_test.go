package graph

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/topo"
)

func pathEq(a, b []topo.NodeID) bool {
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

func TestShortestPathLine(t *testing.T) {
	g := topo.Line(5)
	p := ShortestPath(g, 0, 4, nil)
	if !pathEq(p, []topo.NodeID{0, 1, 2, 3, 4}) {
		t.Errorf("path = %v", p)
	}
}

func TestShortestPathSelf(t *testing.T) {
	g := topo.Line(3)
	if p := ShortestPath(g, 1, 1, nil); !pathEq(p, []topo.NodeID{1}) {
		t.Errorf("self path = %v", p)
	}
}

func TestShortestPathUnreachable(t *testing.T) {
	g := topo.New(4)
	g.MustAddChannel(0, 1)
	g.MustAddChannel(2, 3)
	if p := ShortestPath(g, 0, 3, nil); p != nil {
		t.Errorf("expected nil, got %v", p)
	}
}

func TestShortestPathUsableFilter(t *testing.T) {
	// Diamond: 0-1-3 and 0-2-3. Block 0→1 and the path must detour.
	g := topo.New(4)
	g.MustAddChannel(0, 1)
	g.MustAddChannel(1, 3)
	g.MustAddChannel(0, 2)
	g.MustAddChannel(2, 3)
	p := ShortestPath(g, 0, 3, func(u, v topo.NodeID, _ int32) bool {
		return !(u == 0 && v == 1)
	})
	if !pathEq(p, []topo.NodeID{0, 2, 3}) {
		t.Errorf("path = %v, want detour via 2", p)
	}
}

func TestShortestPathIsShortest(t *testing.T) {
	g := topo.Ring(10)
	p := ShortestPath(g, 0, 3, nil)
	if hops(p) != 3 {
		t.Errorf("hops = %d, want 3", hops(p))
	}
}

func TestDistances(t *testing.T) {
	g := topo.Line(4)
	d := Distances(g, 0)
	want := []int{0, 1, 2, 3}
	for i := range want {
		if d[i] != want[i] {
			t.Errorf("dist[%d] = %d, want %d", i, d[i], want[i])
		}
	}
	h := topo.New(3)
	h.MustAddChannel(0, 1)
	if d := Distances(h, 0); d[2] != -1 {
		t.Errorf("unreachable dist = %d, want -1", d[2])
	}
}

func TestSpanningTree(t *testing.T) {
	g := topo.Ring(6)
	parent := SpanningTree(g, 0)
	if parent[0] != 0 {
		t.Errorf("root parent = %d", parent[0])
	}
	// Every node reaches the root via parents.
	for u := 0; u < 6; u++ {
		v := topo.NodeID(u)
		for steps := 0; v != 0; steps++ {
			if steps > 6 {
				t.Fatalf("node %d does not reach root", u)
			}
			v = parent[v]
		}
	}
}

func TestPathEdgesAndHops(t *testing.T) {
	p := []topo.NodeID{3, 1, 4}
	edges := PathEdges(p)
	if len(edges) != 2 || edges[0] != (DirEdge{3, 1}) || edges[1] != (DirEdge{1, 4}) {
		t.Errorf("edges = %v", edges)
	}
	if hops(p) != 2 || hops(nil) != 0 || hops([]topo.NodeID{7}) != 0 {
		t.Error("Hops miscounts")
	}
	if (DirEdge{1, 2}).Reverse() != (DirEdge{2, 1}) {
		t.Error("Reverse broken")
	}
}

func TestEdgeDisjointPathsDiamond(t *testing.T) {
	g := topo.New(4)
	g.MustAddChannel(0, 1)
	g.MustAddChannel(1, 3)
	g.MustAddChannel(0, 2)
	g.MustAddChannel(2, 3)
	paths := EdgeDisjointPaths(g, 0, 3, 4)
	if len(paths) != 2 {
		t.Fatalf("found %d paths, want 2", len(paths))
	}
	checkChans(t, g, "EdgeDisjointPaths", paths...)
	used := make(map[topo.Edge]bool)
	for _, p := range paths {
		for _, e := range PathEdges(p.Nodes()) {
			key := topo.NewEdge(e.U, e.V)
			if used[key] {
				t.Fatalf("channel %v reused across paths %v", key, paths)
			}
			used[key] = true
		}
	}
}

func TestEdgeDisjointPathsRespectsK(t *testing.T) {
	g := topo.Complete(6)
	paths := EdgeDisjointPaths(g, 0, 5, 3)
	if len(paths) != 3 {
		t.Errorf("found %d paths, want 3", len(paths))
	}
}

func TestYenFirstIsShortest(t *testing.T) {
	g := topo.Ring(8)
	paths := YenKSP(g, 0, 4, 2)
	if len(paths) != 2 {
		t.Fatalf("got %d paths", len(paths))
	}
	if hops(paths[0]) != 4 || hops(paths[1]) != 4 {
		t.Errorf("ring paths should both have 4 hops: %d, %d", hops(paths[0]), hops(paths[1]))
	}
}

func TestYenLooplessDistinctSorted(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g, err := topo.BarabasiAlbert(40, 3, rng)
	if err != nil {
		t.Fatal(err)
	}
	paths := YenKSP(g, 0, 39, 8)
	if len(paths) == 0 {
		t.Fatal("no paths found")
	}
	hops := Yen(g, 0, 39, 8, nil)
	if len(hops) != len(paths) {
		t.Fatalf("Yen found %d hop paths, YenKSP %d paths", len(hops), len(paths))
	}
	for i, p := range hops {
		if !pathEq(p.Nodes(), paths[i]) {
			t.Fatalf("path %d: Yen %v, YenKSP %v", i, p, paths[i])
		}
	}
	checkChans(t, g, "Yen", hops...)
	seen := make(map[string]bool)
	prevLen := 0
	keyOf := func(p []topo.NodeID) string { return fmt.Sprint(p) }
	for _, p := range paths {
		if p[0] != 0 || p[len(p)-1] != 39 {
			t.Fatalf("path endpoints wrong: %v", p)
		}
		nodes := make(map[topo.NodeID]bool)
		for _, u := range p {
			if nodes[u] {
				t.Fatalf("loop in path %v", p)
			}
			nodes[u] = true
		}
		for _, e := range PathEdges(p) {
			if !g.HasChannel(e.U, e.V) {
				t.Fatalf("path %v uses missing channel %v", p, e)
			}
		}
		key := keyOf(p)
		if seen[key] {
			t.Fatalf("duplicate path %v", p)
		}
		seen[key] = true
		if len(p) < prevLen {
			t.Fatalf("paths not sorted by length")
		}
		prevLen = len(p)
	}
}

func TestYenCompleteEnumeration(t *testing.T) {
	// Square 0-1-2-3-0 plus diagonal 0-2: s=0, t=2 has exactly three
	// loopless paths: [0 2], [0 1 2], [0 3 2].
	g := topo.New(4)
	g.MustAddChannel(0, 1)
	g.MustAddChannel(1, 2)
	g.MustAddChannel(2, 3)
	g.MustAddChannel(3, 0)
	g.MustAddChannel(0, 2)
	paths := YenKSP(g, 0, 2, 10)
	if len(paths) != 3 {
		t.Fatalf("found %d paths, want 3: %v", len(paths), paths)
	}
	if hops(paths[0]) != 1 || hops(paths[1]) != 2 || hops(paths[2]) != 2 {
		t.Errorf("hop sequence wrong: %v", paths)
	}
}

func TestYenNoPath(t *testing.T) {
	g := topo.New(3)
	g.MustAddChannel(0, 1)
	if paths := YenKSP(g, 0, 2, 3); paths != nil {
		t.Errorf("expected nil, got %v", paths)
	}
	if paths := YenKSP(g, 0, 1, 0); paths != nil {
		t.Errorf("k=0 should return nil, got %v", paths)
	}
}

func constCap(c float64) Capacity {
	return func(u, v topo.NodeID) float64 { return c }
}

func TestMaxFlowSimple(t *testing.T) {
	// Diamond with unit capacities: max flow 0→3 is 2.
	g := topo.New(4)
	g.MustAddChannel(0, 1)
	g.MustAddChannel(1, 3)
	g.MustAddChannel(0, 2)
	g.MustAddChannel(2, 3)
	res := MaxFlow(g, 0, 3, constCap(1), -1)
	if res.Value != 2 {
		t.Errorf("flow = %v, want 2", res.Value)
	}
	if !flowConserved(0, 3, res, 1e-9) {
		t.Error("flow not conserved")
	}
}

func TestMaxFlowFigure5a(t *testing.T) {
	// Paper Figure 5(a): node 1 sender, node 6 receiver. Channels:
	// 1-2:30, 2-3:30, 3-6:30, 2-5(paper draws 2→6 via 3; we follow the
	// figure): 1-5:30, 5-4:20, 4-6:20. Two shortest paths share the 1-2
	// bottleneck (30); max-flow also uses 1-5-4-6 for 20 more.
	g := topo.New(7)
	caps := map[DirEdge]float64{}
	add := func(a, b topo.NodeID, c float64) {
		g.MustAddChannel(a, b)
		caps[DirEdge{a, b}] = c
		caps[DirEdge{b, a}] = c
	}
	add(1, 2, 30)
	add(2, 3, 30)
	add(3, 6, 30)
	add(2, 6, 30)
	add(1, 5, 30)
	add(5, 4, 20)
	add(4, 6, 20)
	capFn := func(u, v topo.NodeID) float64 { return caps[DirEdge{u, v}] }
	res := MaxFlow(g, 1, 6, capFn, -1)
	if res.Value != 50 {
		t.Errorf("max flow = %v, want 50 (30 via node 2 + 20 via 5-4)", res.Value)
	}
}

func TestMaxFlowRespectsDemand(t *testing.T) {
	g := topo.Line(3)
	res := MaxFlow(g, 0, 2, constCap(100), 40)
	if res.Value != 40 {
		t.Errorf("flow = %v, want demand-capped 40", res.Value)
	}
}

func TestMaxFlowZeroCases(t *testing.T) {
	g := topo.Line(3)
	if res := MaxFlow(g, 0, 0, constCap(1), -1); res.Value != 0 {
		t.Error("s==t flow should be 0")
	}
	if res := MaxFlow(g, 0, 2, constCap(0), -1); res.Value != 0 {
		t.Error("zero capacities should give zero flow")
	}
}

// TestMaxFlowMinCut verifies flow value equals min cut on random graphs
// via the residual-reachability criterion.
func TestMaxFlowMinCut(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 30; trial++ {
		g, err := topo.BarabasiAlbert(16, 2, rng)
		if err != nil {
			t.Fatal(err)
		}
		caps := make(map[DirEdge]float64)
		for _, e := range g.Channels() {
			caps[DirEdge{e.A, e.B}] = float64(1 + rng.Intn(10))
			caps[DirEdge{e.B, e.A}] = float64(1 + rng.Intn(10))
		}
		capFn := func(u, v topo.NodeID) float64 { return caps[DirEdge{u, v}] }
		s, tt := topo.NodeID(0), topo.NodeID(15)
		res := MaxFlow(g, s, tt, capFn, -1)
		if !flowConserved(s, tt, res, 1e-6) {
			t.Fatalf("trial %d: conservation violated", trial)
		}
		// Residual reachability: recompute residual caps and check t is
		// unreachable from s (max-flow certificate), then cut capacity
		// equals flow value.
		resid := func(u, v topo.NodeID) float64 {
			r := caps[DirEdge{u, v}]
			r -= res.Flow[DirEdge{u, v}]
			r += res.Flow[DirEdge{v, u}]
			return r
		}
		reach := map[topo.NodeID]bool{s: true}
		queue := []topo.NodeID{s}
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			for _, v := range g.Neighbors(u) {
				if !reach[v] && resid(u, v) > 1e-9 {
					reach[v] = true
					queue = append(queue, v)
				}
			}
		}
		if reach[tt] {
			t.Fatalf("trial %d: t reachable in residual graph — flow not maximal", trial)
		}
		cut := 0.0
		for _, e := range g.Channels() {
			for _, d := range []DirEdge{{e.A, e.B}, {e.B, e.A}} {
				if reach[d.U] && !reach[d.V] {
					cut += caps[d]
				}
			}
		}
		if math.Abs(cut-res.Value) > 1e-6 {
			t.Fatalf("trial %d: cut %v ≠ flow %v", trial, cut, res.Value)
		}
	}
}

func BenchmarkShortestPathBA1870(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	g, err := topo.RippleLike(1870, rng)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ShortestPath(g, 0, topo.NodeID(1+i%1869), nil)
	}
}

func BenchmarkYenTop4BA1870(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	g, err := topo.RippleLike(1870, rng)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		YenKSP(g, 0, topo.NodeID(1+i%1869), 4)
	}
}

// flowConserved checks the conservation law of a flow result: for every
// node other than s and t, inflow equals outflow (within tol).
func flowConserved(s, t topo.NodeID, f FlowResult, tol float64) bool {
	net := make(map[topo.NodeID]float64)
	for e, x := range f.Flow {
		net[e.U] -= x
		net[e.V] += x
	}
	for u, x := range net {
		switch u {
		case s:
			if math.Abs(x+f.Value) > tol {
				return false
			}
		case t:
			if math.Abs(x-f.Value) > tol {
				return false
			}
		default:
			if math.Abs(x) > tol {
				return false
			}
		}
	}
	return true
}

// hops returns the hop count of a node path (0 for empty or single-node
// paths).
func hops(path []topo.NodeID) int {
	if len(path) < 2 {
		return 0
	}
	return len(path) - 1
}
