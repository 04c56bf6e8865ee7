package baseline

import (
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"repro/internal/pcn"
	"repro/internal/route"
	"repro/internal/topo"
)

// stubSession is a route.Session on a graph whose every hop has ample
// balance. With record set it keeps a copy of every path probed or
// held; without, it allocates nothing.
type stubSession struct {
	g      *topo.Graph
	s, t   topo.NodeID
	info   [64]pcn.HopInfo
	held   float64
	record bool
	paths  [][]topo.NodeID
}

func (ss *stubSession) Graph() *topo.Graph                    { return ss.g }
func (ss *stubSession) Sender() topo.NodeID                   { return ss.s }
func (ss *stubSession) Receiver() topo.NodeID                 { return ss.t }
func (ss *stubSession) Demand() float64                       { return 1 }
func (ss *stubSession) LocalBalance(u, v topo.NodeID) float64 { return 1e9 }
func (ss *stubSession) HeldTotal() float64                    { return ss.held }
func (ss *stubSession) Commit() error                         { return nil }
func (ss *stubSession) Abort() error                          { return nil }

func (ss *stubSession) Probe(path []topo.NodeID) ([]pcn.HopInfo, error) {
	ss.keep(path)
	info := ss.info[:len(path)-1]
	for i := range info {
		info[i].Available = 1e9
	}
	return info, nil
}

func (ss *stubSession) Hold(path []topo.NodeID, amount float64) error {
	ss.keep(path)
	ss.held += amount
	return nil
}

func (ss *stubSession) keep(path []topo.NodeID) {
	if ss.record {
		ss.paths = append(ss.paths, slices.Clone(path))
	}
}

// routed returns every path r probes or holds for one payment s→t.
func routed(t *testing.T, r route.Router, g *topo.Graph, s, d topo.NodeID) [][]topo.NodeID {
	t.Helper()
	ss := &stubSession{g: g, s: s, t: d, record: true}
	if err := r.Route(ss); err != nil {
		t.Fatalf("%s %d→%d: %v", r.Name(), s, d, err)
	}
	return ss.paths
}

// TestPathTableMatchesSearch checks both static baselines with their
// path table on against the same router with it off: on every ordered
// pair they probe and hold the same paths, first on a cold table, then
// on a warm one.
func TestPathTableMatchesSearch(t *testing.T) {
	graphs := []struct {
		name string
		make func() *topo.Graph
	}{
		{"ba60", func() *topo.Graph {
			g, err := topo.BarabasiAlbert(60, 2, rand.New(rand.NewSource(7)))
			if err != nil {
				t.Fatal(err)
			}
			return g
		}},
		{"ring", func() *topo.Graph { return topo.Ring(24) }},
	}
	routers := []func() route.Router{
		func() route.Router { return NewShortestPath() },
		func() route.Router { return NewSpider() },
	}
	for _, gc := range graphs {
		for _, mk := range routers {
			g := gc.make()
			cached, fresh := mk(), mk()
			if static, ok := fresh.(interface{ SetCaching(bool) }); ok {
				static.SetCaching(false)
			}
			check := func(stage string) {
				n := topo.NodeID(g.NumNodes())
				for s := topo.NodeID(0); s < n; s++ {
					for d := topo.NodeID(0); d < n; d++ {
						if s == d {
							continue
						}
						want, got := routed(t, fresh, g, s, d), routed(t, cached, g, s, d)
						if !slices.EqualFunc(got, want, slices.Equal) {
							t.Fatalf("%s %s %s %d→%d: cached %v, searched %v", gc.name, cached.Name(), stage, s, d, got, want)
						}
					}
				}
			}
			check("cold")
			check("warm")
		}
	}
}

var mapSink map[pairKey]topo.Path

// TestShortestPathTableAllocs pins what ShortestPath's path table
// allocates. A warm hit allocates nothing. The first payments of 1,000
// pairs allocate at most what filling a heap map with the same 1,000
// keys costs plus one per arena chunk their paths fill (27 today: 22
// and 5, the arena's chunks doubling from 256 elements to the 5,812 the
// paths take).
func TestShortestPathTableAllocs(t *testing.T) {
	g, err := topo.BarabasiAlbert(60, 2, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	var pairs []pairKey
	for s := topo.NodeID(0); len(pairs) < 1000; s++ {
		for d := topo.NodeID(0); d < 60 && len(pairs) < 1000; d++ {
			if s != d {
				pairs = append(pairs, pairKey{s, d})
			}
		}
	}
	ss := &stubSession{g: g}
	mallocs := func(fn func()) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		fn()
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs
	}
	pay := func(r route.Router, p pairKey) {
		ss.s, ss.t = p.s, p.t
		if err := r.Route(ss); err != nil {
			t.Fatal(err)
		}
	}
	warm := NewShortestPath() // grows a free-list Scratch to every search
	for _, p := range pairs {
		pay(warm, p)
	}
	sp := NewShortestPath()
	first := mallocs(func() {
		for _, p := range pairs {
			pay(sp, p)
		}
	})
	// The arena's chunks double from 256 elements to 32,768
	// (topo.PathArena), and a chunk leaves unused less than the longest
	// path, so the paths fill at most chunks of them.
	elems, longest := 0, 0
	for _, p := range sp.entries {
		elems += p.Len()
		longest = max(longest, p.Len())
	}
	chunks := uint64(0)
	for size, room := 1<<8, 0; room < elems; size = min(2*size, 1<<15) {
		room += size - (longest - 1)
		chunks++
	}
	growth := mallocs(func() {
		m := make(map[pairKey]topo.Path)
		for _, p := range pairs {
			m[p] = topo.Path{}
		}
		mapSink = m // on the heap, as the table's map is
	})
	if bound := chunks + growth; first > bound {
		t.Errorf("1,000 first payments allocate %d, want ≤ %d (%d arena chunks, %d map growth)", first, bound, chunks, growth)
	}
	if avg := testing.AllocsPerRun(100, func() { pay(sp, pairs[len(pairs)/2]) }); avg != 0 {
		t.Errorf("a warm ShortestPath payment allocates %v, want 0", avg)
	}
}
