package graph

import (
	"math/rand"
	"testing"

	"repro/internal/topo"
)

// The differential tests of AugmentingPath: round sequences that keep its
// contract must get, round for round, what a fresh search given the last
// hop count as its floor and the oracle BFS get; sequences that end must
// search afresh.

// chSlot is the directed slot of the hop u→v over channel ch: 2·ch plus 1
// when u is the higher endpoint.
func chSlot(u, v topo.NodeID, ch int32) int {
	if u > v {
		return 2*int(ch) + 1
	}
	return 2 * int(ch)
}

// checkAugmentRounds runs one augmenting sequence from s to t under a
// predicate that changes between rounds only as the contract allows — each
// round closes a hop of the path it found (as the bottleneck closes), and
// now and then more of its hops, reverses of its hops reopened (the residual
// update) and hops elsewhere closed (probing) — starting from a seed-chosen
// set of closed hops and a no-path shape. At every round the resumed search
// must return what a fresh search under the last round's hop count as its
// floor and the oracle return, nil endings included. It reports the rounds
// run and how many of them kept the hop count of the round before.
func checkAugmentRounds(tb testing.TB, dg diffGraph, s, t topo.NodeID, seed int64, cut uint8, resumed, fresh, oracle *Scratch) (rounds, kept int) {
	tb.Helper()
	g := dg.g
	n := g.NumNodes()
	closed := mix(seed, -3, -3) % 40
	shut := make([]bool, 2*g.NumChannels())
	for i := range shut {
		shut[i] = mix(seed, i, -5)%100 < closed
	}
	cu := func(u, v topo.NodeID, ch int32) bool {
		return !shut[chSlot(u, v, ch)] && !cutHop(cut, n, s, t, u, v)
	}
	floor := 0
	for r := 0; r < 24; r++ {
		hp := resumed.AugmentingPath(g, s, t, cu, r == 0)
		checkChans(tb, g, "AugmentingPath", hp)
		got := hp.Nodes()
		if want := oracle.oracleSearch(g, s, t, cu, false); !pathEq(got, want) {
			tb.Fatalf("%s %d→%d seed=%d cut=%d round %d: resumed %v, oracle %v", dg.name, s, t, seed, cut%numCuts, r, got, want)
		}
		if want := fresh.search(g, s, t, cu, false, floor); !pathEq(got, want) {
			tb.Fatalf("%s %d→%d seed=%d cut=%d round %d: resumed %v, fresh under floor %d %v", dg.name, s, t, seed, cut%numCuts, r, got, floor, want)
		}
		rounds++
		if len(got) < 2 {
			return rounds, kept
		}
		if len(got)-1 == floor {
			kept++
		}
		floor = len(got) - 1
		slots := make([]int, hp.Hops())
		for h := range slots {
			u, v, ch := hp.Hop(h)
			slots[h] = chSlot(u, v, int32(ch))
		}
		shut[slots[mix(seed, r, -6)%uint64(len(slots))]] = true
		for h, x := range slots {
			switch mix(seed, r, h) % 8 {
			case 0:
				shut[x] = true
			case 1, 2:
				shut[x^1] = false
			}
		}
		for j := 0; j < 3; j++ {
			if h := mix(seed, r, -7-j); h%3 == 0 {
				shut[h%uint64(len(shut))] = true
			}
		}
	}
	return rounds, kept
}

// TestAugmentRoundsDifferential runs sequences between random pairs of every
// fixture graph on three shared Scratches, as the free list's are shared, and
// checks that resuming is what saved the work: over the whole test the
// resumed rounds read fewer adjacency entries than the floored fresh ones.
func TestAugmentRoundsDifferential(t *testing.T) {
	resumed, fresh, oracle := NewScratch(), NewScratch(), NewScratch()
	rounds, kept := 0, 0
	for _, dg := range diffGraphs() {
		n := dg.g.NumNodes()
		rng := rand.New(rand.NewSource(int64(n) + 17))
		pairs := 40
		if n >= 600 {
			pairs = 4
		}
		for i := 0; i < pairs; i++ {
			s, tt := topo.NodeID(rng.Intn(n)), topo.NodeID(rng.Intn(n))
			r, k := checkAugmentRounds(t, dg, s, tt, rng.Int63(), uint8(i%5), resumed, fresh, oracle)
			rounds, kept = rounds+r, kept+k
		}
	}
	if kept < rounds/4 {
		t.Fatalf("%d of %d rounds kept the hop count of the round before: too few resumed to test", kept, rounds)
	}
	if resumed.edges >= fresh.edges {
		t.Fatalf("resumed rounds read %d adjacency entries, floored fresh ones %d", resumed.edges, fresh.edges)
	}
}

// FuzzAugmentRounds lets the fuzzer pick the graph, the endpoints, the
// no-path shape (cut 4 is none, like 0) and the seed of the closed hops and
// of every round's changes.
func FuzzAugmentRounds(f *testing.F) {
	graphs := diffGraphs()
	f.Add(uint8(0), uint16(0), uint16(299), uint8(cutNone), int64(1))
	f.Add(uint8(1), uint16(17), uint16(3), uint8(cutNone), int64(2))
	f.Add(uint8(1), uint16(17), uint16(399), uint8(cutAtT), int64(29))
	f.Add(uint8(2), uint16(5), uint16(150), uint8(cutMiddle), int64(3))
	f.Add(uint8(3), uint16(3), uint16(150), uint8(cutNone), int64(4))
	f.Add(uint8(3), uint16(7), uint16(80), uint8(cutAtS), int64(5))
	f.Add(uint8(4), uint16(0), uint16(599), uint8(cutNone), int64(6))
	f.Add(uint8(5), uint16(0), uint16(300), uint8(cutNone), int64(7))
	f.Fuzz(func(t *testing.T, gi uint8, s, tt uint16, cut uint8, seed int64) {
		dg := graphs[int(gi)%len(graphs)]
		n := dg.g.NumNodes()
		checkAugmentRounds(t, dg, topo.NodeID(int(s)%n), topo.NodeID(int(tt)%n), seed, cut,
			NewScratch(), NewScratch(), NewScratch())
	})
}

// TestAugmentingPathEndsSequence: every way a sequence ends must make the
// next round a fresh search. Each case runs one round with the first hop of
// the plain shortest path p0 closed, so it finds another path P1, then
// breaks the contract — every hop reopens — and asks again: a fresh search
// returns p0, a stale resume would continue from P1 and never get back to it.
func TestAugmentingPathEndsSequence(t *testing.T) {
	g := diffGraphs()[1].g // ripple-like, 400 nodes
	rng := rand.New(rand.NewSource(23))
	oracle := NewScratch()
	cases := []struct {
		name  string
		again func(sc **Scratch, g *topo.Graph, s, t topo.NodeID, cu Usable) []topo.NodeID
	}{
		{"first round of a new sequence", func(sc **Scratch, g *topo.Graph, s, t topo.NodeID, cu Usable) []topo.NodeID {
			return (*sc).AugmentingPath(g, s, t, cu, true).Nodes()
		}},
		{"re-acquired Scratch", func(sc **Scratch, g *topo.Graph, s, t topo.NodeID, cu Usable) []topo.NodeID {
			ReleaseScratch(*sc)
			*sc = AcquireScratch() // the list's last release: the same Scratch unless a parallel test took it
			return (*sc).AugmentingPath(g, s, t, cu, false).Nodes()
		}},
		{"intervening ShortestPath", func(sc **Scratch, g *topo.Graph, s, t topo.NodeID, cu Usable) []topo.NodeID {
			(*sc).ShortestPath(g, t, s, nil)
			return (*sc).AugmentingPath(g, s, t, cu, false).Nodes()
		}},
		{"intervening Yen run", func(sc **Scratch, g *topo.Graph, s, t topo.NodeID, cu Usable) []topo.NodeID {
			(*sc).yenKSP(g, (s+1)%topo.NodeID(g.NumNodes()), t, 3, nil)
			return (*sc).AugmentingPath(g, s, t, cu, false).Nodes()
		}},
	}
	checked := 0
	for checked < 40 {
		s, tt := topo.NodeID(rng.Intn(g.NumNodes())), topo.NodeID(rng.Intn(g.NumNodes()))
		p0 := appendCopy(oracle.oracleSearch(g, s, tt, nil, false))
		if len(p0) < 4 {
			continue
		}
		for _, c := range cases {
			shut := make([]bool, 2*g.NumChannels())
			cu := func(u, v topo.NodeID, ch int32) bool { return !shut[chSlot(u, v, ch)] }
			shut[chSlot(p0[0], p0[1], int32(g.ChannelIndex(p0[0], p0[1])))] = true
			sc := AcquireScratch()
			p1 := sc.AugmentingPath(g, s, tt, cu, true).Nodes()
			if p1 == nil || pathEq(p1, p0) {
				t.Fatalf("%d→%d: round one %v with p0 = %v's first hop closed", s, tt, p1, p0)
			}
			p1 = appendCopy(p1)
			clear(shut)
			got := c.again(&sc, g, s, tt, cu)
			if want := oracle.oracleSearch(g, s, tt, cu, false); !pathEq(got, want) {
				t.Fatalf("%s, %d→%d: got %v, want the fresh search's %v (round one %v)", c.name, s, tt, got, want, p1)
			}
			ReleaseScratch(sc)
		}
		// Another (s, t) on the same Scratch: the new pair's path, not a
		// continuation of the old pair's pass.
		sc := NewScratch()
		shut := make([]bool, 2*g.NumChannels())
		cu := func(u, v topo.NodeID, ch int32) bool { return !shut[chSlot(u, v, ch)] }
		sc.AugmentingPath(g, s, tt, cu, true)
		for _, pair := range [][2]topo.NodeID{{p0[1], tt}, {s, p0[len(p0)-2]}} {
			want := oracle.oracleSearch(g, pair[0], pair[1], cu, false)
			if got := sc.AugmentingPath(g, pair[0], pair[1], cu, false).Nodes(); !pathEq(got, want) {
				t.Fatalf("%d→%d after %d→%d: got %v, want %v", pair[0], pair[1], s, tt, got, want)
			}
		}
		checked++
	}
}
