package testbed

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/pcn"
	"repro/internal/route"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/trace"
)

func newTestCluster(t *testing.T, g *topo.Graph) *Cluster {
	t.Helper()
	c, err := NewCluster(g, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

func TestClusterBootAndConsistency(t *testing.T) {
	g := topo.Ring(5)
	c := newTestCluster(t, g)
	rng := rand.New(rand.NewSource(1))
	if err := c.SetBalancesUniform(rng, 1000, 1500); err != nil {
		t.Fatal(err)
	}
	if err := c.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	total := c.TotalFunds()
	if total < 5*1000 || total >= 5*1500 {
		t.Errorf("total funds = %v outside [5000, 7500)", total)
	}
}

func TestFromNetwork(t *testing.T) {
	g := topo.Line(4)
	pnet := newPCN(g)
	c := newTestCluster(t, g)
	if err := c.FromNetwork(pnet); err != nil {
		t.Fatal(err)
	}
	if err := c.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	if got := c.TotalFunds(); math.Abs(got-pnet.TotalFunds()) > 1e-9 {
		t.Errorf("funds differ: cluster %v vs network %v", got, pnet.TotalFunds())
	}
	// Mismatched topology is rejected.
	other := newPCN(topo.Line(4))
	if err := c.FromNetwork(other); err == nil {
		t.Error("foreign-topology network accepted")
	}
}

func TestWorkloadFlashOverTCP(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g, err := topo.WattsStrogatz(10, 4, 0.3, rng)
	if err != nil {
		t.Fatal(err)
	}
	c := newTestCluster(t, g)
	if err := c.SetBalancesUniform(rng, 1000, 1500); err != nil {
		t.Fatal(err)
	}
	fundsBefore := c.TotalFunds()

	gen, err := trace.NewGenerator(trace.Config{
		Nodes: 10, Graph: g, Sizes: trace.RippleSizes,
		RecurrenceProb: 0.86, ReceiverZipf: 1.6, SenderZipf: 1.0,
		PaymentsPerDay: 1000, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	payments := gen.Generate(120)
	threshold := core.ThresholdForMiceFraction(trace.Amounts(payments), 0.9)

	factory := func(id topo.NodeID) (route.Router, error) {
		cfg := core.DefaultConfig(threshold)
		cfg.Seed = int64(id)
		return core.New(cfg), nil
	}
	m, err := c.RunWorkload(factory, payments, threshold)
	if err != nil {
		t.Fatal(err)
	}
	if m.Payments == 0 {
		t.Fatal("no payments replayed")
	}
	if m.Successes == 0 {
		t.Error("no payment succeeded on a well-funded 10-node network")
	}
	if m.SuccessVolume <= 0 && m.Successes > 0 {
		t.Error("successes without volume")
	}
	// The core distributed-correctness assertion: all two-party channel
	// views still agree after a mixed workload of commits and aborts.
	if err := c.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	if got := c.TotalFunds(); math.Abs(got-fundsBefore) > 1e-4 {
		t.Errorf("total funds drifted: %v → %v", fundsBefore, got)
	}
}

func TestWorkloadComparesSchemes(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g, err := topo.WattsStrogatz(10, 4, 0.3, rng)
	if err != nil {
		t.Fatal(err)
	}
	gen, err := trace.NewGenerator(trace.Config{
		Nodes: 10, Graph: g, Sizes: trace.RippleSizes,
		RecurrenceProb: 0.86, ReceiverZipf: 1.6, SenderZipf: 1.0,
		PaymentsPerDay: 1000, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	payments := gen.Generate(80)
	threshold := core.ThresholdForMiceFraction(trace.Amounts(payments), 0.9)

	volumes := map[string]float64{}
	for _, scheme := range []string{sim.SchemeFlash, sim.SchemeSpider, sim.SchemeShortestPath} {
		c := newTestCluster(t, g)
		balRNG := rand.New(rand.NewSource(7)) // identical balances per scheme
		if err := c.SetBalancesUniform(balRNG, 1000, 1500); err != nil {
			t.Fatal(err)
		}
		factory := func(id topo.NodeID) (route.Router, error) {
			return sim.BuildRouter(sim.RouterSpec{Scheme: scheme, Threshold: threshold, Seed: int64(id)})
		}
		m, err := c.RunWorkload(factory, payments, threshold)
		if err != nil {
			t.Fatalf("%s: %v", scheme, err)
		}
		if err := c.CheckConsistency(); err != nil {
			t.Fatalf("%s: %v", scheme, err)
		}
		volumes[scheme] = m.SuccessVolume
		c.Close()
	}
	if volumes[sim.SchemeFlash] < volumes[sim.SchemeShortestPath] {
		t.Errorf("Flash volume %v below ShortestPath %v on testbed",
			volumes[sim.SchemeFlash], volumes[sim.SchemeShortestPath])
	}
}

// newPCN builds a small funded pcn.Network for FromNetwork tests.
func newPCN(g *topo.Graph) *pcn.Network {
	net := pcn.New(g)
	rng := rand.New(rand.NewSource(5))
	net.AssignBalancesUniform(rng, 500, 900)
	return net
}

// TestWorkloadConcurrentWorkers drives the cluster with a worker pool:
// the sharded-metrics replay must keep the distributed channel views
// consistent and conserve funds, with every payment accounted exactly
// once.
func TestWorkloadConcurrentWorkers(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	g, err := topo.WattsStrogatz(10, 4, 0.3, rng)
	if err != nil {
		t.Fatal(err)
	}
	c := newTestCluster(t, g)
	if err := c.SetBalancesUniform(rng, 1000, 1500); err != nil {
		t.Fatal(err)
	}
	fundsBefore := c.TotalFunds()

	gen, err := trace.NewGenerator(trace.Config{
		Nodes: 10, Graph: g, Sizes: trace.RippleSizes,
		RecurrenceProb: 0.86, ReceiverZipf: 1.6, SenderZipf: 1.0,
		PaymentsPerDay: 1000, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	payments := gen.Generate(100)
	threshold := core.ThresholdForMiceFraction(trace.Amounts(payments), 0.9)
	factory := func(id topo.NodeID) (route.Router, error) {
		cfg := core.DefaultConfig(threshold)
		cfg.Seed = int64(id)
		return core.New(cfg), nil
	}
	m, err := c.RunWorkloadOpts(factory, payments, threshold, 4)
	if err != nil {
		t.Fatal(err)
	}
	replayable := 0
	for _, p := range payments {
		if p.Sender != p.Receiver && p.Amount > 0 {
			replayable++
		}
	}
	if m.Payments != replayable {
		t.Errorf("payments = %d, want %d (each exactly once)", m.Payments, replayable)
	}
	if m.Successes == 0 {
		t.Error("concurrent testbed replay delivered nothing")
	}
	if err := c.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	if got := c.TotalFunds(); math.Abs(got-fundsBefore) > 1e-4 {
		t.Errorf("total funds drifted: %v → %v", fundsBefore, got)
	}
}
