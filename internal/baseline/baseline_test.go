package baseline

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/pcn"
	"repro/internal/route"
	"repro/internal/topo"
)

func build(t *testing.T, n int, chans [][4]float64) *pcn.Network {
	t.Helper()
	g := topo.New(n)
	for _, c := range chans {
		g.MustAddChannel(topo.NodeID(c[0]), topo.NodeID(c[1]))
	}
	net := pcn.New(g)
	for _, c := range chans {
		if err := net.SetBalance(topo.NodeID(c[0]), topo.NodeID(c[1]), c[2], c[3]); err != nil {
			t.Fatal(err)
		}
	}
	return net
}

func pay(t *testing.T, r route.Router, net *pcn.Network, s, d topo.NodeID, amount float64) (*pcn.Tx, error) {
	t.Helper()
	tx, err := net.Begin(s, d, amount)
	if err != nil {
		t.Fatal(err)
	}
	return tx, r.Route(tx)
}

func TestShortestPathSuccess(t *testing.T) {
	net := build(t, 3, [][4]float64{{0, 1, 100, 0}, {1, 2, 100, 0}})
	tx, err := pay(t, NewShortestPath(), net, 0, 2, 60)
	if err != nil {
		t.Fatal(err)
	}
	if tx.ProbeMessages() != 0 {
		t.Error("SP must not probe")
	}
	if net.Balance(0, 1) != 40 {
		t.Errorf("balance = %v, want 40", net.Balance(0, 1))
	}
}

func TestShortestPathFailsWithoutDetour(t *testing.T) {
	// Shortest path is saturated; SP does not try the longer detour.
	net := build(t, 4, [][4]float64{
		{0, 1, 5, 0}, {1, 3, 5, 0},
		{0, 2, 100, 0}, {2, 3, 100, 0},
	})
	// Both paths are 2 hops; BFS visits neighbour 1 first, so path via 1
	// is chosen and fails.
	_, err := pay(t, NewShortestPath(), net, 0, 3, 50)
	if !errors.Is(err, route.ErrInsufficient) {
		t.Fatalf("err = %v, want ErrInsufficient", err)
	}
	if net.Balance(0, 2) != 100 {
		t.Error("failed SP payment moved balances")
	}
}

func TestShortestPathNoRoute(t *testing.T) {
	g := topo.New(2)
	net := pcn.New(g)
	tx, _ := net.Begin(0, 1, 5)
	if err := NewShortestPath().Route(tx); !errors.Is(err, route.ErrNoRoute) {
		t.Errorf("err = %v, want ErrNoRoute", err)
	}
}

func TestWaterfillEqualises(t *testing.T) {
	alloc := Waterfill([]float64{50, 30, 10}, 30)
	if alloc == nil {
		t.Fatal("feasible demand rejected")
	}
	// Level L solves (50-L)+(30-L) = 30 with L=25 ≥ 10: alloc [25 5 0].
	want := []float64{25, 5, 0}
	for i := range want {
		if math.Abs(alloc[i]-want[i]) > 1e-6 {
			t.Fatalf("alloc = %v, want %v", alloc, want)
		}
	}
}

func TestWaterfillFullDrain(t *testing.T) {
	alloc := Waterfill([]float64{10, 20}, 30)
	if alloc == nil {
		t.Fatal("exact-capacity demand rejected")
	}
	if math.Abs(alloc[0]-10) > 1e-6 || math.Abs(alloc[1]-20) > 1e-6 {
		t.Errorf("alloc = %v, want [10 20]", alloc)
	}
}

func TestWaterfillInfeasible(t *testing.T) {
	if Waterfill([]float64{5, 5}, 11) != nil {
		t.Error("infeasible demand accepted")
	}
	if Waterfill(nil, 1) != nil {
		t.Error("empty path set accepted")
	}
}

// Property: waterfilling always meets demand exactly, never exceeds any
// capacity, and levels the post-allocation residuals of used paths.
func TestWaterfillProperty(t *testing.T) {
	f := func(rawCaps []uint16, demandRaw uint16) bool {
		caps := make([]float64, 0, len(rawCaps))
		total := 0.0
		for _, c := range rawCaps {
			v := float64(c%1000) + 1
			caps = append(caps, v)
			total += v
		}
		if len(caps) == 0 {
			return true
		}
		demand := float64(demandRaw%1000) + 1
		alloc := Waterfill(caps, demand)
		if total < demand-1e-9 {
			return alloc == nil
		}
		if alloc == nil {
			return false
		}
		sum := 0.0
		for i, x := range alloc {
			if x < -1e-9 || x > caps[i]+1e-6 {
				return false
			}
			sum += x
		}
		return math.Abs(sum-demand) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestSpiderSplitsAcrossDisjointPaths(t *testing.T) {
	// Two disjoint 2-hop paths of 40 each; demand 60 needs both.
	net := build(t, 4, [][4]float64{
		{0, 1, 40, 0}, {1, 3, 40, 0},
		{0, 2, 40, 0}, {2, 3, 40, 0},
	})
	sp := NewSpider()
	tx, err := pay(t, sp, net, 0, 3, 60)
	if err != nil {
		t.Fatal(err)
	}
	if tx.PathsUsed() != 2 {
		t.Errorf("paths used = %d, want 2", tx.PathsUsed())
	}
	// Waterfilling balances: 30 each.
	if math.Abs(net.Balance(0, 1)-10) > 1e-6 || math.Abs(net.Balance(0, 2)-10) > 1e-6 {
		t.Errorf("waterfilled balances = %v/%v, want 10/10",
			net.Balance(0, 1), net.Balance(0, 2))
	}
}

func TestSpiderProbesEveryPayment(t *testing.T) {
	net := build(t, 3, [][4]float64{{0, 1, 1000, 0}, {1, 2, 1000, 0}})
	sp := NewSpider()
	tx1, err := pay(t, sp, net, 0, 2, 10)
	if err != nil {
		t.Fatal(err)
	}
	tx2, err := pay(t, sp, net, 0, 2, 10)
	if err != nil {
		t.Fatal(err)
	}
	if tx1.ProbeMessages() == 0 || tx2.ProbeMessages() == 0 {
		t.Error("Spider must probe on every payment")
	}
}

func TestSpiderSharedBottleneckUnderperforms(t *testing.T) {
	// Paper Figure 5(b) argument: edge-disjoint paths cannot reuse the
	// abundant shared link 0-1. Topology: 0-1 (cap 100), then 1-2-5 and
	// 1-3-5 (30 each) and a disjoint 0-4-5 (20).
	net := build(t, 6, [][4]float64{
		{0, 1, 100, 0},
		{1, 2, 30, 0}, {2, 5, 30, 0},
		{1, 3, 30, 0}, {3, 5, 30, 0},
		{0, 4, 20, 0}, {4, 5, 20, 0},
	})
	// Edge-disjoint set can carry at most 30 (via 1) + 20 (via 4) = 50;
	// demand 55 must fail for Spider even though max-flow is 60+20=80.
	_, err := pay(t, NewSpider(), net, 0, 5, 55)
	if !errors.Is(err, route.ErrInsufficient) {
		t.Fatalf("err = %v, want ErrInsufficient (edge-disjoint limitation)", err)
	}
}

func TestSpiderNoRoute(t *testing.T) {
	g := topo.New(2)
	net := pcn.New(g)
	tx, _ := net.Begin(0, 1, 5)
	if err := NewSpider().Route(tx); !errors.Is(err, route.ErrNoRoute) {
		t.Errorf("err = %v, want ErrNoRoute", err)
	}
}

func TestSpeedyMurmursDelivers(t *testing.T) {
	// Well-funded ring: every shard can walk the tree path.
	g := topo.Ring(8)
	net := pcn.New(g)
	for _, e := range g.Channels() {
		net.SetBalance(e.A, e.B, 1000, 1000)
	}
	sm := NewSpeedyMurmurs()
	tx, err := pay(t, sm, net, 0, 4, 30)
	if err != nil {
		t.Fatal(err)
	}
	if tx.ProbeMessages() != 0 {
		t.Error("SpeedyMurmurs must not probe")
	}
	if tx.PathsUsed() != 3 {
		t.Errorf("paths used = %d, want 3 shards", tx.PathsUsed())
	}
}

func TestSpeedyMurmursFailsOnDepletion(t *testing.T) {
	// Line topology: every route must cross 1→2; deplete it.
	net := build(t, 4, [][4]float64{
		{0, 1, 100, 100}, {1, 2, 1, 100}, {2, 3, 100, 100},
	})
	sm := NewSpeedyMurmurs()
	_, err := pay(t, sm, net, 0, 3, 30)
	if !errors.Is(err, route.ErrInsufficient) {
		t.Fatalf("err = %v, want ErrInsufficient", err)
	}
	if net.Balance(0, 1) != 100 {
		t.Error("failed payment moved balances")
	}
}

func TestSpeedyMurmursTreeDist(t *testing.T) {
	g := topo.Line(5)
	sm := NewSpeedyMurmurs()
	emb := sm.embeddingFor(g)
	// Tree 0 is rooted at the highest-degree node (a middle node).
	// Tree distance on a line equals hop distance.
	if d := emb.treeDist(0, 0, 4); d != 4 {
		t.Errorf("treeDist(0,4) = %d, want 4", d)
	}
	if d := emb.treeDist(0, 2, 2); d != 0 {
		t.Errorf("treeDist(2,2) = %d, want 0", d)
	}
}

func TestSpeedyMurmursEmbeddingCache(t *testing.T) {
	g := topo.Ring(6)
	sm := NewSpeedyMurmurs()
	e1 := sm.embeddingFor(g)
	e2 := sm.embeddingFor(g)
	if e1 != e2 {
		t.Error("embedding not cached for same graph")
	}
	g2 := topo.Ring(6)
	if sm.embeddingFor(g2) == e1 {
		t.Error("embedding cache leaked across graphs")
	}
}

func TestMaxFlowFullProbeDelivers(t *testing.T) {
	// The Figure 5(b)-style topology where Spider fails: max-flow wins.
	net := build(t, 6, [][4]float64{
		{0, 1, 100, 0},
		{1, 2, 30, 0}, {2, 5, 30, 0},
		{1, 3, 30, 0}, {3, 5, 30, 0},
		{0, 4, 20, 0}, {4, 5, 20, 0},
	})
	mf := NewMaxFlowFullProbe()
	tx, err := pay(t, mf, net, 0, 5, 55)
	if err != nil {
		t.Fatalf("max-flow router failed: %v", err)
	}
	if tx.ProbeMessages() == 0 {
		t.Error("full-probe router must charge probe messages")
	}
}

func TestMaxFlowFullProbeFails(t *testing.T) {
	net := build(t, 3, [][4]float64{{0, 1, 10, 0}, {1, 2, 10, 0}})
	_, err := pay(t, NewMaxFlowFullProbe(), net, 0, 2, 100)
	if !errors.Is(err, route.ErrInsufficient) {
		t.Fatalf("err = %v, want ErrInsufficient", err)
	}
}

func TestRouterNames(t *testing.T) {
	cases := []struct {
		r    route.Router
		want string
	}{
		{NewShortestPath(), "ShortestPath"},
		{NewSpider(), "Spider"},
		{NewSpeedyMurmurs(), "SpeedyMurmurs"},
		{NewMaxFlowFullProbe(), "MaxFlow-FullProbe"},
	}
	for _, c := range cases {
		if c.r.Name() != c.want {
			t.Errorf("Name = %q, want %q", c.r.Name(), c.want)
		}
	}
}

// TestBaselineAtomicityProperty mirrors the core test: every baseline
// either delivers exactly the demand or leaves balances untouched.
func TestBaselineAtomicityProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	g, err := topo.BarabasiAlbert(30, 3, rng)
	if err != nil {
		t.Fatal(err)
	}
	routers := []route.Router{
		NewShortestPath(),
		NewSpider(),
		NewSpeedyMurmurs(),
		NewMaxFlowFullProbe(),
	}
	for _, r := range routers {
		net := pcn.New(g)
		net.AssignBalancesUniform(rng, 50, 150)
		total := net.TotalFunds()
		for trial := 0; trial < 100; trial++ {
			s := topo.NodeID(rng.Intn(30))
			d := topo.NodeID(rng.Intn(30))
			if s == d {
				continue
			}
			amount := 1 + rng.Float64()*150
			before := nodeFunds(net, g, d)
			tx, err := net.Begin(s, d, amount)
			if err != nil {
				t.Fatal(err)
			}
			rerr := r.Route(tx)
			if !tx.Finished() {
				t.Fatalf("%s trial %d: session unfinished", r.Name(), trial)
			}
			gained := nodeFunds(net, g, d) - before
			if rerr == nil && math.Abs(gained-amount) > 1e-5 {
				t.Fatalf("%s trial %d: gained %v, want %v", r.Name(), trial, gained, amount)
			}
			if rerr != nil && math.Abs(gained) > 1e-6 {
				t.Fatalf("%s trial %d: failed payment moved %v", r.Name(), trial, gained)
			}
			if math.Abs(net.TotalFunds()-total) > 1e-4 {
				t.Fatalf("%s trial %d: funds drifted", r.Name(), trial)
			}
		}
	}
}

func nodeFunds(net *pcn.Network, g *topo.Graph, u topo.NodeID) float64 {
	total := 0.0
	for _, v := range g.Neighbors(u) {
		total += net.Balance(u, v)
	}
	return total
}
