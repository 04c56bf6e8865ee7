package graph

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/topo"
)

// BenchmarkSearch answers ROADMAP item 2's "how large is unmeasured": between
// random pairs of a RippleLike graph it reports nodes/op and edges/op —
// nodes entered or dequeued and adjacency entries read per operation,
// reverse tree, closure scans and backward sweeps included — for the
// pre-change search (oracle) and the production one (pruned), side by side.
// The cells: a point query (bfs), a mice-table build (yen4, yen8), an
// elephant (ek8: eight successive channel-predicate rounds, each closing one
// hop of the path the round before found, as Algorithm 1 closes its
// bottleneck; ek8floor: the same rounds, each given the hop count of the
// round before as its proved floor; ek8resume: the same rounds as one
// augmenting sequence, each continuing the pass the round before stopped
// in, as findElephantPaths does — the oracle has neither and ignores both)
// and an exhausted receiver (nil: every hop into t closed).
// 10,000 nodes is scale-10k's graph; 200 is engine-churn's, where the
// one-shot ShortestPath has no second search to share its reverse tree with.
func BenchmarkSearch(b *testing.B) {
	type findFn = func(sc *Scratch, g *topo.Graph, s, t topo.NodeID, usable Usable, banned bool, floor int) []topo.NodeID
	type yenFn = func(sc *Scratch, g *topo.Graph, s, t topo.NodeID, k int, usable Usable)
	type augmentFn = func(sc *Scratch, g *topo.Graph, s, t topo.NodeID, usable Usable, first bool) []topo.NodeID
	type variant struct {
		name    string
		find    findFn
		yen     yenFn
		augment augmentFn
	}
	var (
		yenPaths []topo.Path // the buffers the pruned Yen appends into, as Flash's table does
		yenElems []topo.NodeID
	)
	variants := []variant{
		{"oracle", func(sc *Scratch, g *topo.Graph, s, t topo.NodeID, usable Usable, banned bool, _ int) []topo.NodeID {
			return sc.oracleSearch(g, s, t, usable, banned)
		}, func(sc *Scratch, g *topo.Graph, s, t topo.NodeID, k int, usable Usable) {
			sc.oracleYenKSP(g, s, t, k, usable)
		}, func(sc *Scratch, g *topo.Graph, s, t topo.NodeID, usable Usable, _ bool) []topo.NodeID {
			return sc.oracleSearch(g, s, t, usable, false)
		}},
		{"pruned", (*Scratch).search, func(sc *Scratch, g *topo.Graph, s, t topo.NodeID, k int, usable Usable) {
			yenPaths, yenElems = sc.yenPaths(g, s, t, k, usable, yenPaths[:0], yenElems[:0])
		}, func(sc *Scratch, g *topo.Graph, s, t topo.NodeID, usable Usable, first bool) []topo.NodeID {
			return sc.AugmentingPath(g, s, t, usable, first).Nodes()
		}},
	}
	for _, n := range []int{200, 10000} {
		g, err := topo.RippleLike(n, rand.New(rand.NewSource(1)))
		if err != nil {
			b.Fatal(err)
		}
		rng := rand.New(rand.NewSource(2))
		pairs := make([][2]topo.NodeID, 512)
		for i := range pairs {
			s := topo.NodeID(rng.Intn(n))
			t := topo.NodeID(rng.Intn(n - 1))
			if t >= s {
				t++
			}
			pairs[i] = [2]topo.NodeID{s, t}
		}
		shut := make([]bool, 2*g.NumChannels()) // ek8's closed hops, 2·channel + direction
		slot := func(u, v topo.NodeID, ch int32) int32 {
			if u > v {
				return 2*ch + 1
			}
			return 2 * ch
		}
		notShut := func(u, v topo.NodeID, ch int32) bool { return !shut[slot(u, v, ch)] }
		const (
			plain = iota
			floored
			resumed
		)
		ek8 := func(mode int) func(sc *Scratch, v variant, s, t topo.NodeID) {
			return func(sc *Scratch, v variant, s, t topo.NodeID) {
				var closed [8]int32
				floor := 0
				for r := range closed {
					var p []topo.NodeID
					if mode == resumed {
						p = v.augment(sc, g, s, t, notShut, r == 0)
					} else {
						p = v.find(sc, g, s, t, notShut, false, floor)
					}
					if p == nil {
						closed[r] = -1
						continue
					}
					if mode == floored {
						floor = len(p) - 1
					}
					h := int(mix(int64(r), int(s), int(t)) % uint64(len(p)-1)) // the round's "bottleneck"
					closed[r] = slot(p[h], p[h+1], int32(g.ChannelIndex(p[h], p[h+1])))
					shut[closed[r]] = true
				}
				for _, x := range closed {
					if x >= 0 {
						shut[x] = false
					}
				}
			}
		}
		for _, c := range []struct {
			name string
			run  func(sc *Scratch, v variant, s, t topo.NodeID)
		}{
			{"bfs", func(sc *Scratch, v variant, s, t topo.NodeID) { v.find(sc, g, s, t, nil, false, 0) }},
			{"yen4", func(sc *Scratch, v variant, s, t topo.NodeID) { v.yen(sc, g, s, t, 4, nil) }},
			{"yen8", func(sc *Scratch, v variant, s, t topo.NodeID) { v.yen(sc, g, s, t, 8, nil) }},
			{"ek8", ek8(plain)},
			{"ek8floor", ek8(floored)},
			{"ek8resume", ek8(resumed)},
			{"nil", func(sc *Scratch, v variant, s, t topo.NodeID) {
				if v.find(sc, g, s, t, func(_, w topo.NodeID, _ int32) bool { return w != t }, false, 0) != nil {
					b.Fatal("path into a receiver whose inbound hops are all closed")
				}
			}},
		} {
			for _, v := range variants {
				b.Run(fmt.Sprintf("nodes=%d/%s/%s", n, c.name, v.name), func(b *testing.B) {
					sc := NewScratch()
					c.run(sc, v, pairs[0][0], pairs[0][1]) // size the buffers
					sc.expanded, sc.edges = 0, 0
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						p := pairs[i%len(pairs)]
						c.run(sc, v, p[0], p[1])
					}
					b.ReportMetric(float64(sc.expanded)/float64(b.N), "nodes/op")
					b.ReportMetric(float64(sc.edges)/float64(b.N), "edges/op")
				})
			}
		}
	}
}
