package graph

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/topo"
)

// BenchmarkSearch answers ROADMAP item 2's "how large is unmeasured": for
// a point query (bfs) and a mice-table build (yen4, yen8) between random
// pairs of a RippleLike graph it reports nodes/op — nodes dequeued per
// operation, reverse-tree growth included — for the pre-change search
// (oracle) and the goal-directed one (pruned), side by side. 10,000 nodes
// is scale-10k's graph; 200 is engine-churn's, where the one-shot
// ShortestPath has no second search to share its reverse tree with.
func BenchmarkSearch(b *testing.B) {
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
		for _, c := range []struct {
			name string
			run  func(sc *Scratch, s, t topo.NodeID)
		}{
			{"bfs/oracle", func(sc *Scratch, s, t topo.NodeID) { sc.oracleSearch(g, s, t, nil, nil, false) }},
			{"bfs/pruned", func(sc *Scratch, s, t topo.NodeID) { sc.search(g, s, t, nil, nil, false) }},
			{"yen4/oracle", func(sc *Scratch, s, t topo.NodeID) { sc.oracleYenKSP(g, s, t, 4, nil, nil) }},
			{"yen4/pruned", func(sc *Scratch, s, t topo.NodeID) { sc.yenKSP(g, s, t, 4, nil, nil) }},
			{"yen8/oracle", func(sc *Scratch, s, t topo.NodeID) { sc.oracleYenKSP(g, s, t, 8, nil, nil) }},
			{"yen8/pruned", func(sc *Scratch, s, t topo.NodeID) { sc.yenKSP(g, s, t, 8, nil, nil) }},
		} {
			b.Run(fmt.Sprintf("nodes=%d/%s", n, c.name), func(b *testing.B) {
				sc := NewScratch()
				c.run(sc, pairs[0][0], pairs[0][1]) // size the buffers
				sc.expanded = 0
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					p := pairs[i%len(pairs)]
					c.run(sc, p[0], p[1])
				}
				b.ReportMetric(float64(sc.expanded)/float64(b.N), "nodes/op")
			})
		}
	}
}
