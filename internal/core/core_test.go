package core

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/pcn"
	"repro/internal/route"
	"repro/internal/topo"
)

// build constructs a network from (a, b, balAB, balBA) channel specs.
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

// pay routes one payment and returns the routing error.
func pay(t *testing.T, r route.Router, net *pcn.Network, s, d topo.NodeID, amount float64) (*pcn.Tx, error) {
	t.Helper()
	tx, err := net.Begin(s, d, amount)
	if err != nil {
		t.Fatal(err)
	}
	return tx, r.Route(tx)
}

func TestElephantSinglePath(t *testing.T) {
	net := build(t, 3, [][4]float64{{0, 1, 100, 0}, {1, 2, 100, 0}})
	f := New(DefaultConfig(0)) // everything elephant
	tx, err := pay(t, f, net, 0, 2, 50)
	if err != nil {
		t.Fatalf("route failed: %v", err)
	}
	if !tx.Finished() {
		t.Error("session left unfinished")
	}
	if got := net.Balance(0, 1); got != 50 {
		t.Errorf("balance(0,1) = %v, want 50", got)
	}
}

func TestElephantMultiPath(t *testing.T) {
	// Diamond: each path carries 60; demand 100 needs both.
	net := build(t, 4, [][4]float64{
		{0, 1, 60, 0}, {1, 3, 60, 0},
		{0, 2, 60, 0}, {2, 3, 60, 0},
	})
	f := New(DefaultConfig(0))
	tx, err := pay(t, f, net, 0, 3, 100)
	if err != nil {
		t.Fatalf("route failed: %v", err)
	}
	if tx.PathsUsed() < 2 {
		t.Errorf("paths used = %d, want ≥ 2", tx.PathsUsed())
	}
	gained := net.Balance(3, 1) + net.Balance(3, 2)
	if math.Abs(gained-100) > 1e-6 {
		t.Errorf("receiver gained %v, want 100", gained)
	}
}

// TestElephantFigure5a reproduces the paper's Figure 5(a) argument: two
// simple shortest paths share the 1→2 bottleneck (capacity 30), so
// k-shortest-path routing strands the 1-5-4-6 detour. The modified
// Edmonds–Karp must find total flow 50 and satisfy a demand of 45.
func TestElephantFigure5a(t *testing.T) {
	net := build(t, 7, [][4]float64{
		{1, 2, 30, 0},
		{2, 3, 30, 0},
		{3, 6, 30, 0},
		{2, 6, 30, 0},
		{1, 5, 30, 0},
		{5, 4, 20, 0},
		{4, 6, 20, 0},
	})
	f := New(DefaultConfig(0))
	_, err := pay(t, f, net, 1, 6, 45)
	if err != nil {
		t.Fatalf("route failed: %v (modified EK should find 30+20=50 ≥ 45)", err)
	}
	// Node 6 received exactly 45 across its three channels.
	gained := net.Balance(6, 3) + net.Balance(6, 2) + net.Balance(6, 4)
	if math.Abs(gained-45) > 1e-6 {
		t.Errorf("receiver gained %v, want 45", gained)
	}
}

func TestElephantInsufficientCapacityAborts(t *testing.T) {
	net := build(t, 3, [][4]float64{{0, 1, 10, 10}, {1, 2, 10, 10}})
	total := net.TotalFunds()
	f := New(DefaultConfig(0))
	tx, err := pay(t, f, net, 0, 2, 100)
	if !errors.Is(err, route.ErrInsufficient) {
		t.Fatalf("err = %v, want ErrInsufficient", err)
	}
	if !tx.Finished() {
		t.Error("failed session left unfinished")
	}
	if net.Balance(0, 1) != 10 {
		t.Errorf("failed payment moved balance: %v", net.Balance(0, 1))
	}
	if net.TotalFunds() != total {
		t.Error("total funds drifted on abort")
	}
}

func TestElephantRespectsK(t *testing.T) {
	// 5 disjoint 2-hop paths of 10 each; k=2 finds at most 20.
	chans := [][4]float64{}
	for i := 1; i <= 5; i++ {
		chans = append(chans, [4]float64{0, float64(i), 10, 0}, [4]float64{float64(i), 6, 10, 0})
	}
	net := build(t, 7, chans)
	cfg := DefaultConfig(0)
	cfg.K = 2
	f := New(cfg)
	if _, err := pay(t, f, net, 0, 6, 25); err == nil {
		t.Error("k=2 should not satisfy demand 25 over 10-capacity paths")
	}
	net2 := build(t, 7, chans)
	cfg.K = 3
	if _, err := pay(t, New(cfg), net2, 0, 6, 25); err != nil {
		t.Errorf("k=3 should satisfy demand 25: %v", err)
	}
}

func TestElephantZeroCapacityPathSkipped(t *testing.T) {
	// Shortest path 0-1-3 has a zero hop; detour 0-2-3 works.
	net := build(t, 4, [][4]float64{
		{0, 1, 100, 0}, {1, 3, 0, 100},
		{0, 2, 50, 0}, {2, 3, 50, 0},
	})
	f := New(DefaultConfig(0))
	if _, err := pay(t, f, net, 0, 3, 40); err != nil {
		t.Fatalf("route failed: %v", err)
	}
	if got := net.Balance(2, 3); got != 10 {
		t.Errorf("balance(2,3) = %v, want 10 (40 sent via detour)", got)
	}
}

func TestFeeOptimizationReducesFees(t *testing.T) {
	// Two disjoint paths: expensive short one (discovered first by BFS),
	// cheap long one. Demand 150 exceeds either path alone, so Algorithm
	// 1 discovers both; the LP should then load the cheap path fully
	// while sequential fill loads the expensive one first.
	mk := func() *pcn.Network {
		net := build(t, 5, [][4]float64{
			{0, 1, 100, 0}, {1, 4, 100, 0}, // short, expensive
			{0, 2, 100, 0}, {2, 3, 100, 0}, {3, 4, 100, 0}, // long, cheap
		})
		net.SetFee(0, 1, pcn.FeeSchedule{Rate: 0.05})
		net.SetFee(1, 4, pcn.FeeSchedule{Rate: 0.05})
		net.SetFee(0, 2, pcn.FeeSchedule{Rate: 0.001})
		net.SetFee(2, 3, pcn.FeeSchedule{Rate: 0.001})
		net.SetFee(3, 4, pcn.FeeSchedule{Rate: 0.001})
		return net
	}

	optNet := mk()
	txOpt, err := pay(t, New(DefaultConfig(0)), optNet, 0, 4, 150)
	if err != nil {
		t.Fatalf("optimised route failed: %v", err)
	}
	noOptCfg := DefaultConfig(0)
	noOptCfg.DisableFeeOpt = true
	noNet := mk()
	txNo, err := pay(t, New(noOptCfg), noNet, 0, 4, 150)
	if err != nil {
		t.Fatalf("sequential route failed: %v", err)
	}
	if txOpt.FeesPaid() >= txNo.FeesPaid() {
		t.Errorf("LP fees %v not below sequential fees %v", txOpt.FeesPaid(), txNo.FeesPaid())
	}
	// LP: 100 on the cheap path (rate 0.003) + 50 on the expensive one
	// (rate 0.1) = 0.3 + 5 = 5.3. Sequential: 100·0.1 + 50·0.003 = 10.15.
	if math.Abs(txOpt.FeesPaid()-5.3) > 1e-6 {
		t.Errorf("LP fees = %v, want 5.3", txOpt.FeesPaid())
	}
	if math.Abs(txNo.FeesPaid()-10.15) > 1e-6 {
		t.Errorf("sequential fees = %v, want 10.15", txNo.FeesPaid())
	}
}

func TestMiceTableReuse(t *testing.T) {
	net := build(t, 4, [][4]float64{{0, 1, 1000, 0}, {1, 2, 1000, 0}, {2, 3, 1000, 0}})
	f := New(DefaultConfig(math.Inf(1))) // everything mice
	for i := 0; i < 5; i++ {
		if _, err := pay(t, f, net, 0, 3, 10); err != nil {
			t.Fatalf("payment %d failed: %v", i, err)
		}
	}
	st := f.Stats()
	if st.TableMisses != 1 {
		t.Errorf("table misses = %d, want 1 (first payment only)", st.TableMisses)
	}
	if st.TableHits != 4 {
		t.Errorf("table hits = %d, want 4", st.TableHits)
	}
	if st.Mice != 5 || st.Elephants != 0 {
		t.Errorf("classification counts wrong: %+v", st)
	}
}

func TestMiceNoProbeOnFirstTrySuccess(t *testing.T) {
	net := build(t, 3, [][4]float64{{0, 1, 1000, 0}, {1, 2, 1000, 0}})
	f := New(DefaultConfig(math.Inf(1)))
	tx, err := pay(t, f, net, 0, 2, 10)
	if err != nil {
		t.Fatal(err)
	}
	if tx.ProbeMessages() != 0 {
		t.Errorf("probe messages = %d, want 0 (direct send succeeded)", tx.ProbeMessages())
	}
}

func TestMicePartialPayments(t *testing.T) {
	// Two paths of 30 each; a 50 mouse must split across them.
	net := build(t, 4, [][4]float64{
		{0, 1, 30, 0}, {1, 3, 30, 0},
		{0, 2, 30, 0}, {2, 3, 30, 0},
	})
	f := New(DefaultConfig(math.Inf(1)))
	tx, err := pay(t, f, net, 0, 3, 50)
	if err != nil {
		t.Fatalf("route failed: %v", err)
	}
	if tx.PathsUsed() != 2 {
		t.Errorf("paths used = %d, want 2", tx.PathsUsed())
	}
	if tx.ProbeMessages() == 0 {
		t.Error("splitting requires at least one probe")
	}
}

func TestMiceFailureAborts(t *testing.T) {
	net := build(t, 3, [][4]float64{{0, 1, 5, 5}, {1, 2, 5, 5}})
	f := New(DefaultConfig(math.Inf(1)))
	tx, err := pay(t, f, net, 0, 2, 100)
	if err == nil {
		t.Fatal("expected failure")
	}
	if !tx.Finished() {
		t.Error("failed session left unfinished")
	}
	if net.Balance(0, 1) != 5 {
		t.Error("failed mouse moved balances")
	}
}

func TestMiceNoRouteReceiver(t *testing.T) {
	g := topo.New(3)
	g.MustAddChannel(0, 1)
	net := pcn.New(g)
	net.SetBalance(0, 1, 10, 10)
	f := New(DefaultConfig(math.Inf(1)))
	tx, _ := net.Begin(0, 2, 5)
	err := f.Route(tx)
	if !errors.Is(err, route.ErrNoRoute) {
		t.Errorf("err = %v, want ErrNoRoute", err)
	}
}

func TestMiceDeadPathReplacement(t *testing.T) {
	// Square 0-1-2 / 0-3-2 with both table paths initially alive, then
	// drain 0-1 so the first path dies; a third path exists via 0-4-5-2.
	net := build(t, 6, [][4]float64{
		{0, 1, 100, 0}, {1, 2, 100, 0},
		{0, 3, 100, 0}, {3, 2, 100, 0},
		{0, 4, 100, 0}, {4, 5, 100, 0}, {5, 2, 100, 0},
	})
	cfg := DefaultConfig(math.Inf(1))
	cfg.M = 2
	f := New(cfg)
	// Prime the table.
	if _, err := pay(t, f, net, 0, 2, 10); err != nil {
		t.Fatal(err)
	}
	// Kill both 2-hop paths.
	net.SetBalance(0, 1, 0, 100)
	net.SetBalance(0, 3, 0, 100)
	if _, err := pay(t, f, net, 0, 2, 10); err != nil {
		t.Fatalf("payment should recover via replacement path: %v", err)
	}
	if f.Stats().PathsReplaced == 0 {
		t.Error("no path replacement recorded")
	}
}

func TestTableTTLEviction(t *testing.T) {
	net := build(t, 4, [][4]float64{{0, 1, 1e6, 0}, {1, 2, 1e6, 0}, {1, 3, 1e6, 0}})
	f := New(DefaultConfig(math.Inf(1)))
	f.ttl = 2
	pay(t, f, net, 0, 2, 1) // entry for 2
	pay(t, f, net, 0, 3, 1) // entry for 3
	pay(t, f, net, 0, 3, 1)
	pay(t, f, net, 0, 3, 1) // clock advances: entry for 2 is stale
	if st := f.Stats(); st.TableEntries != 1 {
		t.Errorf("table entries = %d, want 1 after TTL eviction", st.TableEntries)
	}
}

func TestMZeroRoutesMiceAsElephants(t *testing.T) {
	net := build(t, 3, [][4]float64{{0, 1, 100, 0}, {1, 2, 100, 0}})
	cfg := DefaultConfig(math.Inf(1)) // everything classified mouse...
	cfg.M = 0                         // ...but m=0 forces elephant routing (Fig 11)
	f := New(cfg)
	if _, err := pay(t, f, net, 0, 2, 10); err != nil {
		t.Fatal(err)
	}
	if st := f.Stats(); st.Elephants != 1 || st.Mice != 0 {
		t.Errorf("m=0 should route as elephant: %+v", st)
	}
}

func TestClassification(t *testing.T) {
	f := New(DefaultConfig(100))
	if f.isElephantFor(0, 100) {
		t.Error("amount == threshold should be a mouse")
	}
	if !f.isElephantFor(0, 100.01) {
		t.Error("amount > threshold should be an elephant")
	}
}

func TestThresholdForMiceFraction(t *testing.T) {
	amounts := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	th := ThresholdForMiceFraction(amounts, 0.9)
	mice := 0
	for _, a := range amounts {
		if a <= th {
			mice++
		}
	}
	if mice != 10-1 {
		t.Errorf("threshold %v makes %d mice, want 9", th, mice)
	}
	if got := ThresholdForMiceFraction(amounts, 0); got != 0 {
		t.Errorf("frac 0 → %v, want 0", got)
	}
	if got := ThresholdForMiceFraction(amounts, 1); !math.IsInf(got, 1) {
		t.Errorf("frac 1 → %v, want +Inf", got)
	}
	if got := ThresholdForMiceFraction(nil, 0.5); !math.IsInf(got, 1) {
		t.Errorf("empty amounts → %v, want +Inf", got)
	}
}

func TestFixedMiceOrderDeterministic(t *testing.T) {
	cfg := DefaultConfig(math.Inf(1))
	cfg.FixedMiceOrder = true
	f := New(cfg)
	e := &tableEntry{paths: []topo.Path{ // only the hop counts matter here
		topo.MakePath([]topo.NodeID{0, 1, 2, 3}, make([]int32, 3)),
		topo.MakePath([]topo.NodeID{0, 3}, make([]int32, 1)),
		topo.MakePath([]topo.NodeID{0, 2, 3}, make([]int32, 2)),
	}}
	order := f.pathOrder(e, nil)
	if order[0] != 1 || order[1] != 2 || order[2] != 0 {
		t.Errorf("fixed order = %v, want shortest-first [1 2 0]", order)
	}
}

func TestName(t *testing.T) {
	if got := New(DefaultConfig(42)).Name(); got != "Flash" {
		t.Errorf("Name = %q, want Flash", got)
	}
	noOpt := DefaultConfig(42)
	noOpt.DisableFeeOpt = true
	if got := New(noOpt).Name(); got != "Flash-NoOpt" {
		t.Errorf("Name = %q, want Flash-NoOpt", got)
	}
}

// TestRouteAtomicityProperty: random payments over a random network
// either deliver exactly the demand to the receiver or change nothing.
func TestRouteAtomicityProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	g, err := topo.BarabasiAlbert(40, 3, rng)
	if err != nil {
		t.Fatal(err)
	}
	net := pcn.New(g)
	net.AssignBalancesUniform(rng, 50, 150)
	total := net.TotalFunds()
	f := New(DefaultConfig(60)) // mixed mice/elephants
	for trial := 0; trial < 300; trial++ {
		s := topo.NodeID(rng.Intn(40))
		d := topo.NodeID(rng.Intn(40))
		if s == d {
			continue
		}
		amount := 1 + rng.Float64()*199
		recvBefore := nodeFunds(net, g, d)
		sendBefore := nodeFunds(net, g, s)
		tx, err := net.Begin(s, d, amount)
		if err != nil {
			t.Fatal(err)
		}
		rerr := f.Route(tx)
		if !tx.Finished() {
			t.Fatalf("trial %d: session unfinished", trial)
		}
		recvAfter := nodeFunds(net, g, d)
		sendAfter := nodeFunds(net, g, s)
		if rerr == nil {
			if math.Abs((recvAfter-recvBefore)-amount) > 1e-5 {
				t.Fatalf("trial %d: receiver gained %v, want %v", trial, recvAfter-recvBefore, amount)
			}
			if math.Abs((sendBefore-sendAfter)-amount) > 1e-5 {
				t.Fatalf("trial %d: sender spent %v, want %v", trial, sendBefore-sendAfter, amount)
			}
		} else {
			if math.Abs(recvAfter-recvBefore) > 1e-6 {
				t.Fatalf("trial %d: failed payment moved receiver funds by %v", trial, recvAfter-recvBefore)
			}
		}
		if math.Abs(net.TotalFunds()-total) > 1e-4 {
			t.Fatalf("trial %d: global funds drifted", trial)
		}
	}
}

// nodeFunds sums the spendable balances node u owns across its channels.
func nodeFunds(net *pcn.Network, g *topo.Graph, u topo.NodeID) float64 {
	total := 0.0
	for _, v := range g.Neighbors(u) {
		total += net.Balance(u, v)
	}
	return total
}
