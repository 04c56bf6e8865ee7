package graph

import (
	"container/heap"
	"fmt"
	"math/rand"
	"slices"
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
		comps.Freeze()
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
	return slices.EqualFunc(a, b, pathEq)
}

func sameHopPaths(a, b []topo.Path) bool {
	return slices.EqualFunc(a, b, topo.Path.Equal)
}

// checkChans fails unless every hop of every path carries the channel
// g.ChannelIndex finds for it: the oracle of the channels a search hands
// on instead of a lookup.
func checkChans(tb testing.TB, g *topo.Graph, what string, paths ...topo.Path) {
	tb.Helper()
	for _, p := range paths {
		for i := range p.Hops() {
			if u, v, ch := p.Hop(i); ch != g.ChannelIndex(u, v) {
				tb.Fatalf("%s: hop %d (%d→%d) of %v carries channel %d, ChannelIndex says %d", what, i, u, v, p.Nodes(), ch, g.ChannelIndex(u, v))
			}
		}
	}
}

// The no-path shapes: on top of its random closures a predicate may cut t
// off (every hop into it closed), cut s off (every hop out of it), or cut
// the graph in the middle (every hop between the lower and the upper half
// of the node IDs) — what ends a search nil differs for each.
const (
	cutNone = iota
	cutAtT
	cutAtS
	cutMiddle
	numCuts
)

// cutHop reports whether the shape closes the hop u→v of an n-node graph
// searched from s to t.
func cutHop(cut uint8, n int, s, t, u, v topo.NodeID) bool {
	switch cut % numCuts {
	case cutAtT:
		return v == t
	case cutAtS:
		return u == s
	case cutMiddle:
		return (int(u) < n/2) != (int(v) < n/2)
	}
	return false
}

// checkSearchDifferential compares every entry point with the oracle for
// one (graph, s, t, k, seed, cut, floor) scenario. pruned is deliberately
// shared by all scenarios of a test, so its reverse tree is retargeted
// between graphs and targets the way a Scratch from the free list is. floor is clamped
// to the oracle's hop count — any floor a caller could have proved — and
// the floored search must still return the oracle's path; with no path
// every floor is a true one.
func checkSearchDifferential(tb testing.TB, dg diffGraph, s, t topo.NodeID, k int, seed int64, cut, floor uint8, pruned, oracle *Scratch) {
	tb.Helper()
	g := dg.g
	n := g.NumNodes()
	closed := mix(seed, -3, -3) % 60 // percent of directed hops the predicate closes
	// byPair closes hops by their end nodes, byChan by the channel the
	// search hands it.
	byPair := func(u, v topo.NodeID, _ int32) bool {
		return !cutHop(cut, n, s, t, u, v) && mix(seed, int(u), int(v))%100 >= closed
	}
	byChan := func(u, v topo.NodeID, ch int32) bool {
		dir := 0
		if u > v {
			dir = 1
		}
		return !cutHop(cut, n, s, t, u, v) && mix(seed, int(ch), dir)%100 >= closed
	}
	fail := func(what string, got, want any) {
		tb.Helper()
		tb.Fatalf("%s %d→%d k=%d seed=%d cut=%d floor=%d: %s\n got  %v\n want %v", dg.name, s, t, k, seed, cut%numCuts, floor, what, got, want)
	}
	proved := func(want []topo.NodeID) int {
		if want == nil {
			return int(floor)
		}
		return int(floor) % len(want) // at most hops(want)
	}

	for _, c := range []struct {
		name   string
		usable Usable
	}{{"plain", nil}, {"pair", byPair}, {"chan", byChan}} {
		want := oracle.oracleSearch(g, s, t, c.usable, false)
		aug := pruned.AugmentingPath(g, s, t, c.usable, true)
		if !pathEq(aug.Nodes(), want) {
			fail("AugmentingPath, first round/"+c.name, aug.Nodes(), want)
		}
		checkChans(tb, g, "AugmentingPath, first round/"+c.name, aug)
		if got := pruned.search(g, s, t, c.usable, false, proved(want)); !pathEq(got, want) {
			fail("search with a floor/"+c.name, got, want)
		}
		if got := pruned.ShortestPath(g, s, t, c.usable); !pathEq(got, want) {
			fail("Scratch.ShortestPath/"+c.name, got, want)
		}
		if got := ShortestPath(g, s, t, c.usable); !pathEq(got, want) {
			fail("free-list ShortestPath/"+c.name, got, want)
		}
		got := pruned.Shortest(g, s, t, c.usable)
		if !pathEq(got.Nodes(), want) {
			fail("Scratch.Shortest/"+c.name, got.Nodes(), want)
		}
		checkChans(tb, g, "Scratch.Shortest/"+c.name, got)

		randomBans(pruned, g, seed, 3)
		randomBans(oracle, g, seed, 3)
		want = oracle.oracleSearch(g, s, t, c.usable, true)
		if got := pruned.search(g, s, t, c.usable, true, 0); !pathEq(got, want) {
			fail("banned search/"+c.name, got, want)
		}
		if got := pruned.search(g, s, t, c.usable, true, proved(want)); !pathEq(got, want) {
			fail("banned search with a floor/"+c.name, got, want)
		}

		wantK := oracle.oracleYenKSP(g, s, t, k, c.usable)
		gotK, _ := Yen(g, s, t, k, c.usable, nil, nil)
		if !sameHopPaths(gotK, wantK) {
			fail("Yen/"+c.name, gotK, wantK)
		}
		checkChans(tb, g, "Yen/"+c.name, gotK...)
		if c.usable == nil {
			wantNodes := make([][]topo.NodeID, len(wantK))
			for i, p := range wantK {
				wantNodes[i] = p.Nodes()
			}
			if got := YenKSP(g, s, t, k); !samePaths(got, wantNodes) {
				fail("YenKSP", got, wantNodes)
			}
		}
	}
	got, want := EdgeDisjointPaths(g, s, t, k), oracle.oracleEdgeDisjointPaths(g, s, t, k)
	if !sameHopPaths(got, want) {
		fail("EdgeDisjointPaths", got, want)
	}
	checkChans(tb, g, "EdgeDisjointPaths", got...)
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
			checkSearchDifferential(t, dg, s, tt, 1+i%12, rng.Int63(), uint8(i/12), uint8(rng.Intn(256)), pruned, oracle)
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
			checkSearchDifferential(t, dg, 0, 599, 2, 1, cutNone, 255, pruned, oracle)
			checkSearchDifferential(t, dg, 580, 10, 2, 2, cutMiddle, 200, pruned, oracle)
		case "ring-600":
			checkSearchDifferential(t, dg, 0, 300, 3, 3, cutNone, 255, pruned, oracle)
			checkSearchDifferential(t, dg, 10, 290, 2, 4, cutAtT, 7, pruned, oracle)
		case "components":
			for i, pair := range [][2]topo.NodeID{{3, 150}, {150, 3}, {7, 180}, {180, 7}, {180, 181}, {121, 160}} {
				checkSearchDifferential(t, dg, pair[0], pair[1], 4, int64(i), cutNone, uint8(3*i), pruned, oracle)
				if p := ShortestPath(dg.g, pair[0], pair[1], nil); (p == nil) != (i < 5) {
					t.Errorf("components %v: path %v", pair, p)
				}
			}
		}
	}
}

// FuzzSearchDifferential lets the fuzzer pick the graph, the endpoints, k,
// the no-path shape, the ban/predicate seed and the floor (clamped to what a
// caller could have proved, see checkSearchDifferential). Seeds 29, 46 and
// 54 close no hop at random, so those three corpus entries are the bare
// shapes; the last five are the floor's: at the distance exactly (255 clamps
// to it on these pairs), one below it, on a saturated tree, and with no path
// under a small and a large floor.
func FuzzSearchDifferential(f *testing.F) {
	graphs := diffGraphs()
	f.Add(uint8(0), uint16(0), uint16(299), uint8(8), uint8(cutNone), int64(1), uint8(0))
	f.Add(uint8(1), uint16(17), uint16(3), uint8(12), uint8(cutNone), int64(2), uint8(0))
	f.Add(uint8(2), uint16(5), uint16(150), uint8(4), uint8(cutNone), int64(3), uint8(0))
	f.Add(uint8(3), uint16(3), uint16(150), uint8(4), uint8(cutNone), int64(4), uint8(0))
	f.Add(uint8(3), uint16(190), uint16(191), uint8(2), uint8(cutNone), int64(5), uint8(0))
	f.Add(uint8(4), uint16(0), uint16(599), uint8(2), uint8(cutNone), int64(6), uint8(0))
	f.Add(uint8(5), uint16(0), uint16(300), uint8(2), uint8(cutNone), int64(7), uint8(0))
	f.Add(uint8(1), uint16(17), uint16(399), uint8(4), uint8(cutAtT), int64(29), uint8(0))
	f.Add(uint8(0), uint16(250), uint16(3), uint8(4), uint8(cutAtS), int64(46), uint8(0))
	f.Add(uint8(2), uint16(20), uint16(280), uint8(4), uint8(cutMiddle), int64(54), uint8(0))
	f.Add(uint8(0), uint16(0), uint16(299), uint8(8), uint8(cutNone), int64(1), uint8(255))
	f.Add(uint8(2), uint16(5), uint16(150), uint8(4), uint8(cutNone), int64(3), uint8(254))
	f.Add(uint8(4), uint16(0), uint16(599), uint8(2), uint8(cutNone), int64(6), uint8(255))
	f.Add(uint8(1), uint16(17), uint16(399), uint8(4), uint8(cutAtT), int64(29), uint8(3))
	f.Add(uint8(2), uint16(20), uint16(280), uint8(4), uint8(cutMiddle), int64(54), uint8(200))
	f.Fuzz(func(t *testing.T, gi uint8, s, tt uint16, k, cut uint8, seed int64, floor uint8) {
		dg := graphs[int(gi)%len(graphs)]
		n := dg.g.NumNodes()
		k = 1 + k%12
		if n >= 600 {
			k = 1 + k%3 // see TestSearchDifferential
		}
		checkSearchDifferential(t, dg, topo.NodeID(int(s)%n), topo.NodeID(int(tt)%n), int(k), seed, cut, floor,
			NewScratch(), NewScratch())
	})
}

// The reverse tree is cached on (graph, target), and a graph is frozen
// by its first search: a channel can only be added by building a new
// graph, and that graph's answer must show it on the same Scratch and
// target. The shortcut runs through nodes that were farther from the
// target than the source was, which labels from the old graph would
// prune.
func TestSearchSeesAddedChannel(t *testing.T) {
	line := func(extra ...[2]topo.NodeID) *topo.Graph {
		g := topo.Line(12)
		for _, e := range extra {
			g.MustAddChannel(e[0], e[1])
		}
		return g
	}
	g := line()
	sc := NewScratch()
	if p := sc.ShortestPath(g, 4, 11, nil); hops(p) != 7 {
		t.Fatalf("line path %v", p)
	}
	if _, err := g.AddChannel(0, 11); err == nil || g.NumChannels() != 11 {
		t.Fatalf("AddChannel on a searched graph = %v, %d channels", err, g.NumChannels())
	}
	g = line([2]topo.NodeID{0, 11})
	if p := sc.ShortestPath(g, 4, 11, nil); !pathEq(p, []topo.NodeID{4, 3, 2, 1, 0, 11}) {
		t.Fatalf("after shortcut 0–11: %v", p)
	}
	g = line([2]topo.NodeID{0, 11}, [2]topo.NodeID{3, 11})
	want := [][]topo.NodeID{{4, 3, 11}, {4, 3, 2, 1, 0, 11}, {4, 5, 6, 7, 8, 9, 10, 11}}
	if got := sc.yenNodes(g, 4, 11, 4, nil); !samePaths(got, want) {
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
	lineTwin.Freeze()

	pruned, oracle := NewScratch(), NewScratch()
	rng := rand.New(rand.NewSource(11))
	graphs := []*topo.Graph{small, big, line, lineTwin, big, small, lineTwin, line}
	for round := 0; round < 40; round++ {
		tt := topo.NodeID(rng.Intn(40)) // one target ID across every graph of the round
		for gi, g := range graphs {
			s := topo.NodeID(rng.Intn(g.NumNodes()))
			want := oracle.oracleSearch(g, s, tt, nil, false)
			if got := pruned.ShortestPath(g, s, tt, nil); !pathEq(got, want) {
				t.Fatalf("round %d graph %d %d→%d: got %v, want %v", round, gi, s, tt, got, want)
			}
			// A second source towards the same target reuses the tree.
			s2 := topo.NodeID(rng.Intn(g.NumNodes()))
			want = oracle.oracleSearch(g, s2, tt, nil, false)
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
		want := oracle.oracleSearch(dg.g, s, tt, nil, true)
		if got := pruned.search(dg.g, s, tt, nil, true, 0); !pathEq(got, want) {
			t.Fatalf("search %d (%d→%d, seed %d): got %v, want %v", i, s, tt, seed, got, want)
		}
		passes += int(pruned.epoch-before) & 0xff
	}
	if passes < 4*256 {
		t.Fatalf("only %d passes: the mark epoch never wrapped often enough to test", passes)
	}
}

// lexMinShortest is the definition search must meet, by brute force and
// independent of the oracle: of all simple s→t paths over open hops, the
// fewest hops, and among those the smallest sequence of neighbour-list
// positions. It enumerates adjacency entries, not neighbours, so a node
// listed twice (parallel channels) would count once per entry.
func lexMinShortest(g *topo.Graph, s, t topo.NodeID, open func(u, v topo.NodeID, ch int32) bool) []topo.NodeID {
	off, nbrs, chans := g.AdjacencyView()
	var best []topo.NodeID
	var bestPos []int32
	onPath := make([]bool, g.NumNodes())
	var walk func(path []topo.NodeID, pos []int32)
	walk = func(path []topo.NodeID, pos []int32) {
		u := path[len(path)-1]
		if u == t {
			if best == nil || len(path) < len(best) || len(path) == len(best) && slices.Compare(pos, bestPos) < 0 {
				best, bestPos = slices.Clone(path), slices.Clone(pos)
			}
			return
		}
		onPath[u] = true
		for i := off[u]; i < off[u+1]; i++ {
			if v := nbrs[i]; !onPath[v] && open(u, v, chans[i]) {
				walk(append(path, v), append(pos, i-off[u]))
			}
		}
		onPath[u] = false
	}
	walk([]topo.NodeID{s}, nil)
	return best
}

// TestSearchIsLexMinShortestPath pins the invariant the depth-first search
// rests on: the path is the shortest open one that is smallest in
// neighbour-list position — on small random graphs whose lists are in
// random order, under random predicates and ban-sets, and again with the
// first hop of the answer banned, so that a later list position must win.
// (topo.Graph folds a repeated channel into the first, so lists with one
// neighbour twice cannot be built; the banned first hop is the nearest case.)
func TestSearchIsLexMinShortestPath(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	sc := NewScratch()
	for round := 0; round < 400; round++ {
		n := 2 + rng.Intn(8)
		g := topo.New(n)
		for e := rng.Intn(3 * n); e > 0; e-- { // random insertion order is random list order
			if a, b := rng.Intn(n), rng.Intn(n); a != b {
				g.MustAddChannel(topo.NodeID(a), topo.NodeID(b))
			}
		}
		g.Freeze()
		seed := rng.Int63()
		closed := uint64(rng.Intn(40))
		nodeBan := make([]bool, n)
		hopBan := make([]bool, 2*g.NumChannels())
		slot := func(u, v topo.NodeID, ch int32) int32 {
			if u > v {
				return 2*ch + 1
			}
			return 2 * ch
		}
		for v := range nodeBan {
			nodeBan[v] = mix(seed, v, -1)%100 < 8
		}
		for i := range hopBan {
			hopBan[i] = mix(seed, i, -2)%100 < 8
		}
		cu := func(u, v topo.NodeID, ch int32) bool { return mix(seed, int(ch), int(slot(u, v, ch)&1))%100 >= closed }
		open := func(u, v topo.NodeID, ch int32) bool {
			return !nodeBan[v] && !hopBan[slot(u, v, ch)] && cu(u, v, ch)
		}
		check := func(s, tt topo.NodeID) []topo.NodeID {
			sc.ensureBans(g)
			for v, b := range nodeBan {
				if b {
					sc.banNode(topo.NodeID(v))
				}
			}
			for idx, e := range g.Channels() {
				if hopBan[2*idx] {
					sc.banEdge(idx, e.A, e.B)
				}
				if hopBan[2*idx+1] {
					sc.banEdge(idx, e.B, e.A)
				}
			}
			want := lexMinShortest(g, s, tt, open)
			if got := sc.search(g, s, tt, cu, true, 0); !pathEq(got, want) {
				t.Fatalf("round %d %d→%d: got %v, want %v\nchannels %v\nbanned nodes %v hops %v",
					round, s, tt, got, want, g.Channels(), nodeBan, hopBan)
			}
			return want
		}
		for s := topo.NodeID(0); int(s) < n; s++ {
			for tt := topo.NodeID(0); int(tt) < n; tt++ {
				if p := check(s, tt); len(p) > 1 { // once more without the answer's first hop
					first := slot(p[0], p[1], int32(g.ChannelIndex(p[0], p[1])))
					hopBan[first] = true
					check(s, tt)
					hopBan[first] = false
				}
			}
		}
	}
}

// TestNoPathCost: a search that ends nil must not cost more than the flood
// it replaced. On the 10,000-node graph, search reads at most twice the
// adjacency entries the oracle's single BFS reads when the cut is at t (it
// ends on the first backward sweep) or at s (on the first closure scan).
// A cut in the middle, the sender in the half that holds the hubs, ends on
// whichever closes first; by then tree, passes and sweeps have each read up
// to one side of the graph, so the bound there is three floods, not two. No
// bound holds with the sender in the sparse half: the tree alone outgrows
// the small flood the oracle needs (ROADMAP item 2).
func TestNoPathCost(t *testing.T) {
	const n = 10000
	g, err := topo.RippleLike(n, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	for _, c := range []struct {
		cut    uint8
		floods int
	}{{cutAtT, 2}, {cutAtS, 2}, {cutMiddle, 3}} {
		for i := 0; i < 40; i++ {
			s, tt := topo.NodeID(rng.Intn(n/2)), topo.NodeID(n/2+rng.Intn(n/2))
			cu := func(u, v topo.NodeID, _ int32) bool { return !cutHop(c.cut, n, s, tt, u, v) }
			pruned, oracle := NewScratch(), NewScratch()
			if p := oracle.oracleSearch(g, s, tt, cu, false); p != nil {
				t.Fatalf("cut %d %d→%d: oracle found %v", c.cut, s, tt, p)
			}
			if p := pruned.search(g, s, tt, cu, false, 0); p != nil {
				t.Fatalf("cut %d %d→%d: search found %v", c.cut, s, tt, p)
			}
			if pruned.edges > c.floods*oracle.edges {
				t.Errorf("cut %d %d→%d: search read %d adjacency entries, the oracle's flood %d",
					c.cut, s, tt, pruned.edges, oracle.edges)
			}
		}
	}
}

// TestFloorAboveDistanceIsACallerBug pins what the floor is: a proof the
// caller owes, not a hint search checks. On the square 0–1–2–3–0 the path
// from 0 to 3 is one hop; told that no path has fewer than three, the first
// pass walks to the first open path within three hops in list order — the
// long way round. Still an open path, no longer the shortest.
func TestFloorAboveDistanceIsACallerBug(t *testing.T) {
	g := topo.Ring(4)
	sc := NewScratch()
	if p := sc.search(g, 0, 3, nil, false, 1); !pathEq(p, []topo.NodeID{0, 3}) {
		t.Fatalf("true floor: %v", p)
	}
	if p := sc.search(g, 0, 3, nil, false, 3); !pathEq(p, []topo.NodeID{0, 1, 2, 3}) {
		t.Fatalf("floor above the distance: %v, want the three-hop walk", p)
	}
}

// TestFlooredNilCost: a floor skips the cheap passes that used to earn the
// backward sweep its budget, so a floored search that skips any must find
// an exhausted receiver — Algorithm 1's last round — for the price of the
// receiver's own list, not a flood at the floor.
func TestFlooredNilCost(t *testing.T) {
	const n = 10000
	g, err := topo.RippleLike(n, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	sc := NewScratch()
	for i := 0; i < 40; i++ {
		s, tt := topo.NodeID(rng.Intn(n)), topo.NodeID(rng.Intn(n))
		p := sc.search(g, s, tt, nil, false, 0)
		if len(p) < 2 {
			continue
		}
		floor := len(p) // one hop more than the plain distance: a pass is skipped
		before := sc.edges
		dry := func(_, v topo.NodeID, _ int32) bool { return v != tt }
		if q := sc.search(g, s, tt, dry, false, floor); q != nil {
			t.Fatalf("%d→%d: path %v into a receiver with no open inbound hop", s, tt, q)
		}
		if got, want := sc.edges-before, g.Degree(tt); got != want {
			t.Errorf("%d→%d: nil under floor %d cost %d adjacency reads, the receiver's list is %d", s, tt, floor, got, want)
		}
	}
}

// TestCandHeapPopsLikeContainerHeap pushes and pops distinct random paths
// through the typed heap and through container/heap over the same
// ordering, interleaved as a Yen run interleaves them, and requires the
// same pop sequence: the order is total on distinct paths, so any
// correct heap must agree.
func TestCandHeapPopsLikeContainerHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	seen := map[string]bool{}
	var typed, boxed candHeap
	for round := 0; round < 2000; round++ {
		if len(typed) > 0 && rng.Intn(3) == 0 {
			a, b := typed.pop(), heap.Pop(&boxed).(yenCand)
			if !a.path.Equal(b.path) || a.dev != b.dev {
				t.Fatalf("round %d: typed heap popped %v (dev %d), container/heap %v (dev %d)", round, a.path, a.dev, b.path, b.dev)
			}
			continue
		}
		p := make([]topo.NodeID, 2+rng.Intn(4))
		for i := range p {
			p[i] = topo.NodeID(rng.Intn(5))
		}
		if seen[fmt.Sprint(p)] {
			continue
		}
		seen[fmt.Sprint(p)] = true
		c := yenCand{path: topo.MakePath(p, make([]int32, len(p)-1)), dev: rng.Intn(4)}
		typed.push(c)
		heap.Push(&boxed, c)
	}
	for len(typed) > 0 {
		a, b := typed.pop(), heap.Pop(&boxed).(yenCand)
		if !a.path.Equal(b.path) {
			t.Fatalf("drain: typed heap popped %v, container/heap %v", a.path, b.path)
		}
	}
}
