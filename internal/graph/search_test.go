package graph

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/topo"
)

// The differential tests: every search entry point must return, path for
// path, what the pre-change unidirectional search (oracle_test.go) returns
// — on scale-free, small-world, disconnected and very long graphs, under
// random bans and random directed predicates.

type diffGraph struct {
	name string
	g    *topo.Graph
}

var (
	diffGraphsOnce sync.Once
	diffGraphsList []diffGraph
)

// diffGraphs builds the fixture topologies once. The 600-node path and
// ring have pairs farther apart than maxLabel, so their searches run on a
// saturated reverse tree; "components" has two components and isolated
// nodes, so some pairs have no path at all.
func diffGraphs() []diffGraph {
	diffGraphsOnce.Do(func() {
		must := func(g *topo.Graph, err error) *topo.Graph {
			if err != nil {
				panic(err)
			}
			return g
		}
		comps := topo.New(200)
		rng := rand.New(rand.NewSource(4))
		for i := 1; i < 120; i++ { // nodes 0..119: a random tree plus chords
			comps.MustAddChannel(topo.NodeID(i), topo.NodeID(rng.Intn(i)))
		}
		for i := 0; i < 150; i++ {
			if a, b := rng.Intn(120), rng.Intn(120); a != b {
				comps.MustAddChannel(topo.NodeID(a), topo.NodeID(b))
			}
		}
		for i := 120; i < 170; i++ { // nodes 120..169: a ring; 170..199 isolated
			comps.MustAddChannel(topo.NodeID(i), topo.NodeID(120+(i-119)%50))
		}
		comps.Compact()
		diffGraphsList = []diffGraph{
			{"barabasi-albert", must(topo.BarabasiAlbert(300, 2, rand.New(rand.NewSource(1))))},
			{"ripple-like", must(topo.RippleLike(400, rand.New(rand.NewSource(2))))},
			{"watts-strogatz", must(topo.WattsStrogatz(300, 4, 0.1, rand.New(rand.NewSource(3))))},
			{"components", comps},
			{"path-600", topo.Line(600)},
			{"ring-600", topo.Ring(600)},
		}
	})
	return diffGraphsList
}

// mix hashes a hop with a seed into a well-spread 64-bit value
// (splitmix64 finaliser): the random predicates and bans derive from it,
// so one seed names one reproducible scenario.
func mix(seed int64, a, b int) uint64 {
	x := uint64(seed) ^ uint64(a)<<32 ^ uint64(uint32(b))
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// randomBans opens a ban generation on sc and bans a seed-determined set
// of nodes, directed hops and whole channels, about pct percent of each.
func randomBans(sc *Scratch, g *topo.Graph, seed int64, pct uint64) {
	sc.ensureBans(g)
	for v := 0; v < g.NumNodes(); v++ {
		if mix(seed, v, -1)%100 < pct {
			sc.banNode(topo.NodeID(v))
		}
	}
	for idx, e := range g.Channels() {
		switch h := mix(seed, idx, -2); {
		case h%100 >= 2*pct:
		case h&(1<<40) != 0:
			sc.banChannel(idx)
		case h&(1<<41) != 0:
			sc.banEdge(idx, e.A, e.B)
		default:
			sc.banEdge(idx, e.B, e.A)
		}
	}
}

func samePaths(a, b [][]topo.NodeID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !pathEq(a[i], b[i]) {
			return false
		}
	}
	return true
}

// checkSearchDifferential compares every entry point with the oracle for
// one (graph, s, t, k, seed) scenario. pruned is deliberately shared by
// all scenarios of a test, so its reverse tree is retargeted between
// graphs and targets the way a pooled Scratch is.
func checkSearchDifferential(tb testing.TB, dg diffGraph, s, t topo.NodeID, k int, seed int64, pruned, oracle *Scratch) {
	tb.Helper()
	g := dg.g
	closed := mix(seed, -3, -3) % 60 // percent of directed hops the predicate closes
	usable := func(u, v topo.NodeID) bool { return mix(seed, int(u), int(v))%100 >= closed }
	cu := func(u, v topo.NodeID, ch int32) bool {
		dir := 0
		if u > v {
			dir = 1
		}
		return mix(seed, int(ch), dir)%100 >= closed
	}
	fail := func(what string, got, want any) {
		tb.Helper()
		tb.Fatalf("%s %d→%d k=%d seed=%d: %s\n got  %v\n want %v", dg.name, s, t, k, seed, what, got, want)
	}

	for _, c := range []struct {
		name   string
		usable Usable
		cu     ChUsable
	}{{"plain", nil, nil}, {"usable", usable, nil}, {"chusable", nil, cu}} {
		want := oracle.oracleSearch(g, s, t, c.usable, c.cu, false)
		if c.cu != nil {
			if got := pruned.ShortestPathCh(g, s, t, c.cu); !pathEq(got, want) {
				fail("ShortestPathCh", got, want)
			}
		} else {
			if got := pruned.ShortestPath(g, s, t, c.usable); !pathEq(got, want) {
				fail("Scratch.ShortestPath/"+c.name, got, want)
			}
			if got := ShortestPath(g, s, t, c.usable); !pathEq(got, want) {
				fail("pooled ShortestPath/"+c.name, got, want)
			}
		}

		randomBans(pruned, g, seed, 3)
		randomBans(oracle, g, seed, 3)
		want = oracle.oracleSearch(g, s, t, c.usable, c.cu, true)
		if got := pruned.search(g, s, t, c.usable, c.cu, true); !pathEq(got, want) {
			fail("banned search/"+c.name, got, want)
		}

		wantK := oracle.oracleYenKSP(g, s, t, k, c.usable, c.cu)
		var gotK [][]topo.NodeID
		switch {
		case c.cu != nil:
			gotK = YenKSPCh(g, s, t, k, c.cu)
		case c.usable != nil:
			gotK = YenKSPUsable(g, s, t, k, c.usable)
		default:
			gotK = YenKSP(g, s, t, k)
		}
		if !samePaths(gotK, wantK) {
			fail("YenKSP/"+c.name, gotK, wantK)
		}
	}
	if got, want := EdgeDisjointPaths(g, s, t, k), oracle.oracleEdgeDisjointPaths(g, s, t, k); !samePaths(got, want) {
		fail("EdgeDisjointPaths", got, want)
	}
}

func TestSearchDifferential(t *testing.T) {
	pruned, oracle := NewScratch(), NewScratch()
	for _, dg := range diffGraphs() {
		n := dg.g.NumNodes()
		rng := rand.New(rand.NewSource(int64(n)))
		pairs := 60
		if n >= 600 {
			pairs = 6 // a Yen round on the ring is ~300 spur searches of ~300 hops
		}
		for i := 0; i < pairs; i++ {
			s, tt := topo.NodeID(rng.Intn(n)), topo.NodeID(rng.Intn(n))
			checkSearchDifferential(t, dg, s, tt, 1+i%12, rng.Int63(), pruned, oracle)
		}
	}
}

// Pairs the tree cannot bound: farther apart than maxLabel on the path
// and the ring, and in different components.
func TestSearchDifferentialFarAndApart(t *testing.T) {
	pruned, oracle := NewScratch(), NewScratch()
	for _, dg := range diffGraphs() {
		switch dg.name {
		case "path-600":
			checkSearchDifferential(t, dg, 0, 599, 2, 1, pruned, oracle)
			checkSearchDifferential(t, dg, 580, 10, 2, 2, pruned, oracle)
		case "ring-600":
			checkSearchDifferential(t, dg, 0, 300, 3, 3, pruned, oracle)
			checkSearchDifferential(t, dg, 10, 290, 2, 4, pruned, oracle)
		case "components":
			for i, pair := range [][2]topo.NodeID{{3, 150}, {150, 3}, {7, 180}, {180, 7}, {180, 181}, {121, 160}} {
				checkSearchDifferential(t, dg, pair[0], pair[1], 4, int64(i), pruned, oracle)
				if p := ShortestPath(dg.g, pair[0], pair[1], nil); (p == nil) != (i < 5) {
					t.Errorf("components %v: path %v", pair, p)
				}
			}
		}
	}
}

// FuzzSearchDifferential lets the fuzzer pick the graph, the endpoints, k
// and the ban/predicate seed.
func FuzzSearchDifferential(f *testing.F) {
	graphs := diffGraphs()
	f.Add(uint8(0), uint16(0), uint16(299), uint8(8), int64(1))
	f.Add(uint8(1), uint16(17), uint16(3), uint8(12), int64(2))
	f.Add(uint8(2), uint16(5), uint16(150), uint8(4), int64(3))
	f.Add(uint8(3), uint16(3), uint16(150), uint8(4), int64(4))
	f.Add(uint8(3), uint16(190), uint16(191), uint8(2), int64(5))
	f.Add(uint8(4), uint16(0), uint16(599), uint8(2), int64(6))
	f.Add(uint8(5), uint16(0), uint16(300), uint8(2), int64(7))
	f.Fuzz(func(t *testing.T, gi uint8, s, tt uint16, k uint8, seed int64) {
		dg := graphs[int(gi)%len(graphs)]
		n := dg.g.NumNodes()
		k = 1 + k%12
		if n >= 600 {
			k = 1 + k%3 // see TestSearchDifferential
		}
		checkSearchDifferential(t, dg, topo.NodeID(int(s)%n), topo.NodeID(int(tt)%n), int(k), seed,
			NewScratch(), NewScratch())
	})
}

// The reverse tree is cached on (graph, target, channel count): a channel
// added after a search must show in the next answer on the same Scratch
// and target. The shortcut runs through nodes that were farther from the
// target than the source was, which labels from before it would prune.
func TestSearchSeesAddedChannel(t *testing.T) {
	g := topo.Line(12)
	sc := NewScratch()
	if p := sc.ShortestPath(g, 4, 11, nil); Hops(p) != 7 {
		t.Fatalf("line path %v", p)
	}
	g.MustAddChannel(0, 11)
	if p := sc.ShortestPath(g, 4, 11, nil); !pathEq(p, []topo.NodeID{4, 3, 2, 1, 0, 11}) {
		t.Fatalf("after shortcut 0–11: %v", p)
	}
	g.MustAddChannel(3, 11)
	want := [][]topo.NodeID{{4, 3, 11}, {4, 3, 2, 1, 0, 11}, {4, 5, 6, 7, 8, 9, 10, 11}}
	if got := sc.yenKSP(g, 4, 11, 4, nil, nil); !samePaths(got, want) {
		t.Fatalf("after shortcut 3–11: %v", got)
	}
}

// A Scratch that moves between graphs of different sizes, between graphs
// that share node count, channel count and target, and between targets
// must never read a label left by an earlier tree.
func TestScratchReuseAcrossGraphsAndTargets(t *testing.T) {
	big := allocGraph(t) // 400 nodes
	small := topo.Ring(40)
	line := topo.Line(40)
	lineTwin := topo.New(40) // as many nodes and channels as line, another shape
	for i := 1; i < 40; i++ {
		lineTwin.MustAddChannel(0, topo.NodeID(i))
	}
	lineTwin.Compact()

	pruned, oracle := NewScratch(), NewScratch()
	rng := rand.New(rand.NewSource(11))
	graphs := []*topo.Graph{small, big, line, lineTwin, big, small, lineTwin, line}
	for round := 0; round < 40; round++ {
		tt := topo.NodeID(rng.Intn(40)) // one target ID across every graph of the round
		for gi, g := range graphs {
			s := topo.NodeID(rng.Intn(g.NumNodes()))
			want := oracle.oracleSearch(g, s, tt, nil, nil, false)
			if got := pruned.ShortestPath(g, s, tt, nil); !pathEq(got, want) {
				t.Fatalf("round %d graph %d %d→%d: got %v, want %v", round, gi, s, tt, got, want)
			}
			// A second source towards the same target reuses the tree.
			s2 := topo.NodeID(rng.Intn(g.NumNodes()))
			want = oracle.oracleSearch(g, s2, tt, nil, nil, false)
			if got := pruned.ShortestPath(g, s2, tt, nil); !pathEq(got, want) {
				t.Fatalf("round %d graph %d %d→%d (shared tree): got %v, want %v", round, gi, s2, tt, got, want)
			}
		}
	}
}

// The visited marks are one byte: a search now opens one epoch per pass,
// so the wrap comes sooner. Thousands of multi-pass searches on one
// Scratch must keep matching the oracle across many wraps.
func TestScratchEpochWrap(t *testing.T) {
	dg := diffGraphs()[0]
	n := dg.g.NumNodes()
	pruned, oracle := NewScratch(), NewScratch()
	rng := rand.New(rand.NewSource(5))
	passes := 0
	for i := 0; i < 3000; i++ {
		s, tt := topo.NodeID(rng.Intn(n)), topo.NodeID(rng.Intn(n))
		seed := rng.Int63()
		randomBans(pruned, dg.g, seed, 10)
		randomBans(oracle, dg.g, seed, 10)
		before := pruned.epoch
		want := oracle.oracleSearch(dg.g, s, tt, nil, nil, true)
		if got := pruned.search(dg.g, s, tt, nil, nil, true); !pathEq(got, want) {
			t.Fatalf("search %d (%d→%d, seed %d): got %v, want %v", i, s, tt, seed, got, want)
		}
		passes += int(pruned.epoch-before) & 0xff
	}
	if passes < 4*256 {
		t.Fatalf("only %d passes: the mark epoch never wrapped often enough to test", passes)
	}
}
