package graph

import (
	"math/rand"
	"testing"

	"repro/internal/topo"
)

// allocGraph builds a deterministic random graph big enough that the
// scratch buffers see realistic frontier sizes.
func allocGraph(t *testing.T) *topo.Graph {
	t.Helper()
	const n = 400
	rng := rand.New(rand.NewSource(9))
	g := topo.New(n)
	for i := topo.NodeID(1); i < n; i++ {
		g.MustAddChannel(i, topo.NodeID(rng.Intn(int(i))))
	}
	for i := 0; i < 3*n; i++ {
		a, b := topo.NodeID(rng.Intn(n)), topo.NodeID(rng.Intn(n))
		if a != b {
			g.AddChannel(a, b)
		}
	}
	g.Freeze()
	return g
}

// TestScratchShortestPathZeroAlloc pins the steady-state allocation
// count of a route lookup on a warm Scratch at zero: the CSR adjacency
// view, the epoch-stamped visited marks and the reusable queue/path
// buffers must make repeated searches allocation-free. A regression
// here reintroduces per-payment garbage on the simulator's hottest
// loop, so the guard is exact.
func TestScratchShortestPathZeroAlloc(t *testing.T) {
	g := allocGraph(t)
	sc := NewScratch()
	if p := sc.ShortestPath(g, 0, 399, nil); p == nil { // warm buffers
		t.Fatal("no path in alloc fixture")
	}
	avg := testing.AllocsPerRun(200, func() {
		if sc.ShortestPath(g, 0, 399, nil) == nil {
			t.Fatal("no path")
		}
	})
	if avg != 0 {
		t.Fatalf("Scratch.ShortestPath allocates %v/op in steady state, want 0", avg)
	}

	// The predicate variants share the buffers and must stay at zero
	// too (the closure itself is hoisted out of the measured loop).
	usable := func(u, v topo.NodeID, ch int32) bool { return true }
	sc.ShortestPath(g, 0, 399, usable)
	if avg := testing.AllocsPerRun(200, func() { sc.ShortestPath(g, 0, 399, usable) }); avg != 0 {
		t.Fatalf("Scratch.ShortestPath(usable) allocates %v/op, want 0", avg)
	}
	sc.AugmentingPath(g, 0, 399, usable, true)
	if avg := testing.AllocsPerRun(200, func() { sc.AugmentingPath(g, 0, 399, usable, true) }); avg != 0 {
		t.Fatalf("Scratch.AugmentingPath allocates %v/op, want 0", avg)
	}
}

// TestAugmentingPathResumeZeroAlloc pins an augmenting sequence — a first
// round, then rounds that each close one hop of the path before and
// continue the held pass — at zero steady-state allocations: resuming
// reuses the stack, the marks and the entered set it kept.
func TestAugmentingPathResumeZeroAlloc(t *testing.T) {
	g := allocGraph(t)
	sc := NewScratch()
	shut := make([]bool, 2*g.NumChannels())
	cu := func(u, v topo.NodeID, ch int32) bool { return !shut[chSlot(u, v, ch)] }
	resumed := 0
	sequence := func() {
		clear(shut)
		hops := 0
		for r := 0; r < 6; r++ {
			p := sc.AugmentingPath(g, 0, 399, cu, r == 0)
			if p.IsZero() {
				return
			}
			if r > 0 && p.Hops() == hops {
				resumed++
			}
			hops = p.Hops()
			u, v, ch := p.Hop(hops - 1)
			shut[chSlot(u, v, int32(ch))] = true
		}
	}
	sequence() // warm buffers
	if resumed == 0 {
		t.Fatal("no round kept the hop count of the round before: nothing resumed")
	}
	if avg := testing.AllocsPerRun(200, sequence); avg != 0 {
		t.Fatalf("an augmenting sequence allocates %v/op in steady state, want 0", avg)
	}
}

// TestScratchBannedSearchZeroAlloc pins the Yen spur primitive — ban-set
// setup plus a banned search, for every spur index of a base path: one
// full Yen round, all towards one target and so on one reverse tree — at
// zero steady-state allocations.
func TestScratchBannedSearchZeroAlloc(t *testing.T) {
	g := allocGraph(t)
	sc := NewScratch()
	base := appendCopy(sc.ShortestPath(g, 0, 399, nil))
	if len(base) < 3 {
		t.Fatalf("alloc fixture path %v too short for a spur round", base)
	}
	round := func() {
		for i := 0; i+1 < len(base); i++ {
			sc.ensureBans(g)
			sc.banEdge(g.ChannelIndex(base[i], base[i+1]), base[i], base[i+1])
			for _, u := range base[:i] {
				sc.banNode(u)
			}
			sc.search(g, base[i], 399, nil, true, 0)
		}
	}
	round() // warm ban arrays
	if avg := testing.AllocsPerRun(200, round); avg != 0 {
		t.Fatalf("Yen spur round allocates %v/op in steady state, want 0", avg)
	}
}

// TestScratchRetargetAndNilZeroAlloc: retargeting and deepening the
// reverse tree, and the searches that end nil — no path in the topology,
// and every path banned, which ends on the backward sweep from the target
// after two failed passes — stay at zero allocations on a warm Scratch:
// the DFS stack, its iterators and the sweep queue all live on it.
func TestScratchRetargetAndNilZeroAlloc(t *testing.T) {
	g := allocGraph(t)
	apart := topo.New(400) // two components: 0..199 and 200..399
	for i := 1; i < 400; i++ {
		if i != 200 {
			apart.MustAddChannel(topo.NodeID(i), topo.NodeID(i-1))
		}
	}
	apart.Freeze()
	sc := NewScratch()
	target := topo.NodeID(0)
	run := func() {
		target = (target + 7) % 400
		sc.ShortestPath(g, 3, target, nil) // new target: retarget, deepen
		if sc.ShortestPath(apart, 10, 390, nil) != nil {
			t.Fatal("path across components")
		}
		sc.ensureBans(g)
		for _, v := range g.Neighbors(399) {
			sc.banChannel(g.ChannelIndex(v, 399))
		}
		if sc.search(g, 0, 399, nil, true, 0) != nil {
			t.Fatal("path into a target whose channels are all banned")
		}
	}
	run()
	if avg := testing.AllocsPerRun(200, run); avg != 0 {
		t.Fatalf("retarget / nil-result searches allocate %v/op, want 0", avg)
	}
}

// TestYenKSPAllocsNoMoreThanOracle: a mice-table build allocates no more
// than oracleYenKSP over the pre-change search, which still
// allocates every candidate, its heap box and one flat seen-set — on this
// fixture at most yenAllocs, where a seen map with a bucket per candidate
// took 48. TestYenKSPAllocs pins the production count exactly.
func TestYenKSPAllocsNoMoreThanOracle(t *testing.T) {
	const yenAllocs = 35
	g := allocGraph(t)
	pruned, oracle := NewScratch(), NewScratch()
	pruned.yenNodes(g, 0, 399, 4, nil)
	oracle.oracleYenKSP(g, 0, 399, 4, nil)
	got := testing.AllocsPerRun(100, func() { pruned.yenNodes(g, 0, 399, 4, nil) })
	want := testing.AllocsPerRun(100, func() { oracle.oracleYenKSP(g, 0, 399, 4, nil) })
	if got > want || got > yenAllocs {
		t.Fatalf("yenKSP(k=4) allocates %v/op, the pre-change search %v/op, the pinned count %v", got, want, yenAllocs)
	}
}

// TestYenKSPAllocs pins a node-form Yen run (YenKSP, what the benchmark's
// graph.yen4 rung times) on a warm Scratch at exactly two allocations:
// the flat array the accepted paths' nodes are copied into and their
// slice headers. Candidates, the seen set and the heap live in the
// Scratch, so a run that allocates more is keeping garbage per spur
// again.
func TestYenKSPAllocs(t *testing.T) {
	g := allocGraph(t)
	sc := NewScratch()
	for _, k := range []int{1, 4, 8} {
		if got := sc.yenNodes(g, 0, 399, k, nil); len(got) != k { // warm buffers
			t.Fatalf("k=%d: %d paths in alloc fixture", k, len(got))
		}
		if avg := testing.AllocsPerRun(100, func() { sc.yenNodes(g, 0, 399, k, nil) }); avg != 2 {
			t.Fatalf("yenNodes(k=%d) allocates %v/op on a warm Scratch, want 2 (the flat paths and their headers)", k, avg)
		}
	}
}

// TestYenPathsZeroAlloc pins the hop-path form of Yen — what a Flash
// table miss, its replacement list and the probe pipeline's candidate
// rounds run — at zero allocations on a warm Scratch when the caller's
// buffers have room: the accepted paths are appended into them, not
// copied out.
func TestYenPathsZeroAlloc(t *testing.T) {
	g := allocGraph(t)
	sc := NewScratch()
	paths := make([]topo.Path, 0, 8)
	elems := make([]topo.NodeID, 0, 1024)
	for _, k := range []int{1, 4, 8} {
		got, _ := sc.yenPaths(g, 0, 399, k, nil, paths, elems) // warm buffers
		if len(got) != k {
			t.Fatalf("k=%d: %d paths in alloc fixture", k, len(got))
		}
		for i, p := range got {
			if want := sc.yenNodes(g, 0, 399, k, nil)[i]; !pathEq(p.Nodes(), want) {
				t.Fatalf("k=%d path %d: hop form %v, node form %v", k, i, p.Nodes(), want)
			}
		}
		if avg := testing.AllocsPerRun(100, func() { sc.yenPaths(g, 0, 399, k, nil, paths, elems) }); avg != 0 {
			t.Fatalf("yenPaths(k=%d) allocates %v/op into buffers with room, want 0", k, avg)
		}
	}
}
