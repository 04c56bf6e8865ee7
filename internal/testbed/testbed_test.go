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

// fundedCluster boots a cluster over g and funds every channel with a
// total drawn uniformly from [lo, hi), split evenly.
func fundedCluster(t *testing.T, g *topo.Graph, rng *rand.Rand, lo, hi float64) *Cluster {
	t.Helper()
	net := pcn.New(g)
	net.AssignBalancesUniform(rng, lo, hi)
	c := newTestCluster(t, g)
	if err := c.FromNetwork(net); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestClusterBootAndConsistency(t *testing.T) {
	c := fundedCluster(t, topo.Ring(5), rand.New(rand.NewSource(1)), 1000, 1500)
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
	c := fundedCluster(t, g, rng, 1000, 1500)
	fundsBefore := c.TotalFunds()

	gen, err := trace.NewGenerator(trace.Config{
		Nodes: 10, Graph: g, Sizes: trace.RippleSizes,
		RecurrenceProb: 0.86, Seed: 3,
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
	m, err := c.RunWorkload(factory, payments, threshold, Telemetry{})
	if err != nil {
		t.Fatal(err)
	}
	replayable := 0
	for _, p := range payments {
		if p.Sender != p.Receiver && p.Amount > 0 {
			replayable++
		}
	}
	if replayable == 0 || m.Payments != replayable {
		t.Fatalf("payments = %d, want %d (each exactly once)", m.Payments, replayable)
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
		RecurrenceProb: 0.86, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	payments := gen.Generate(80)
	threshold := core.ThresholdForMiceFraction(trace.Amounts(payments), 0.9)

	volumes := map[string]float64{}
	for _, scheme := range []string{sim.SchemeFlash, sim.SchemeSpider, sim.SchemeShortestPath} {
		c := fundedCluster(t, g, rand.New(rand.NewSource(7)), 1000, 1500) // identical balances per scheme
		factory := func(id topo.NodeID) (route.Router, error) {
			return sim.BuildRouter(sim.RouterSpec{Scheme: scheme, Threshold: threshold, Seed: int64(id)})
		}
		m, err := c.RunWorkload(factory, payments, threshold, Telemetry{})
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
