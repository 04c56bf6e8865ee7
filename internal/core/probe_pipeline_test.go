package core

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/pcn"
	"repro/internal/topo"
)

// TestPipelinedMatchesMaxFlowProperty is the speculative pipeline's
// version of the Algorithm 1 correctness core: with an unbounded path
// budget and no early exit, the flow discovered by round-batched
// speculative candidates must still equal the true Edmonds–Karp
// max-flow value — speculation changes latency and probing cost, never
// the soundness of the discovered flow.
func TestPipelinedMatchesMaxFlowProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 40; trial++ {
		n := 8 + rng.Intn(12)
		g, err := topo.BarabasiAlbert(n, 2, rng)
		if err != nil {
			t.Fatal(err)
		}
		net := pcn.New(g)
		for _, e := range g.Channels() {
			if err := net.SetBalance(e.A, e.B, float64(1+rng.Intn(20)), float64(1+rng.Intn(20))); err != nil {
				t.Fatal(err)
			}
		}
		s := topo.NodeID(rng.Intn(n))
		d := topo.NodeID(rng.Intn(n))
		if s == d {
			continue
		}
		truth := graph.MaxFlow(g, s, d, func(u, v topo.NodeID) float64 {
			return net.Balance(u, v)
		}, -1, -1)
		if truth.Value <= 0 {
			continue
		}
		cfg := DefaultConfig(0)
		cfg.K = n * n
		cfg.ProbeAllK = true
		cfg.ProbeWorkers = 2 + rng.Intn(4) // 2..5
		f := New(cfg)
		tx, err := net.Begin(s, d, truth.Value)
		if err != nil {
			t.Fatal(err)
		}
		plan := f.findElephantPaths(tx, cfg.K)
		if plan == nil {
			t.Fatalf("trial %d: pipelined Algorithm 1 found no plan for demand %v (= max flow)", trial, truth.Value)
		}
		if math.Abs(plan.flow-truth.Value) > 1e-6 {
			t.Fatalf("trial %d: pipelined flow %v ≠ Edmonds-Karp %v (workers=%d)",
				trial, plan.flow, truth.Value, cfg.ProbeWorkers)
		}
		if err := f.routeWithPlan(tx, plan); err != nil {
			t.Fatalf("trial %d: routing max-flow demand failed: %v", trial, err)
		}
		if n := f.Stats().FeeProgramFallbacks; n != 0 {
			t.Fatalf("trial %d: %d fee-program fallbacks", trial, n)
		}
	}
}

// parallelFixture builds a sender→receiver fan: s connects to P
// mid-nodes, every mid-node connects to t, each channel funded with
// bal per direction — P edge-disjoint 2-hop paths.
func parallelFixture(t *testing.T, paths int, bal float64) (*pcn.Network, topo.NodeID, topo.NodeID) {
	t.Helper()
	g := topo.New(paths + 2)
	s, d := topo.NodeID(0), topo.NodeID(1)
	for i := 0; i < paths; i++ {
		mid := topo.NodeID(2 + i)
		g.MustAddChannel(s, mid)
		g.MustAddChannel(mid, d)
	}
	net := pcn.New(g)
	for _, e := range g.Channels() {
		if err := net.SetBalance(e.A, e.B, bal, bal); err != nil {
			t.Fatal(err)
		}
	}
	return net, s, d
}

// TestPipelinedEarlyStopKeepsSurplusKnowledge pins the two halves of
// the merge contract: the plan stops at the demand exactly like the
// sequential loop (speculative candidates beyond the stop never join
// it), while the knowledge their probes bought is retained in the
// session's capacity matrix for later rounds and the fee LP.
func TestPipelinedEarlyStopKeepsSurplusKnowledge(t *testing.T) {
	const paths = 8
	net, s, d := parallelFixture(t, paths, 100)
	cfg := DefaultConfig(0)
	cfg.ProbeWorkers = 4
	f := New(cfg)
	tx, err := net.Begin(s, d, 50) // the first candidate alone covers it
	if err != nil {
		t.Fatal(err)
	}
	plan := f.findElephantPaths(tx, cfg.K)
	if plan == nil {
		t.Fatal("no plan for trivially satisfiable demand")
	}
	if len(plan.paths) != 1 {
		t.Errorf("early stop violated: plan has %d paths, want 1", len(plan.paths))
	}
	if plan.flow < 50 {
		t.Errorf("plan flow %v does not cover demand 50", plan.flow)
	}
	// One probed 2-hop path records 4 directed entries (both directions
	// of both channels). Sequential probing would know exactly one
	// path's worth; the pipeline probed a full round of 4 candidates.
	seqKnown, roundKnown := 4, 4*4
	if got := knownCount(plan.state); got != roundKnown {
		t.Errorf("capacity matrix has %d entries, want %d (surplus speculation kept)", got, roundKnown)
	} else if got <= seqKnown {
		t.Errorf("no surplus knowledge retained: %d entries", got)
	}
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}
}

// probeOutcome is the deterministic footprint of one routed payment.
type probeOutcome struct {
	delivered bool
	probeMsgs int
	paths     int
	held      float64
	fees      float64
}

// runElephants routes the same seeded elephant workload over a fresh
// identically-seeded network and returns every payment's footprint.
func runElephants(t *testing.T, probeWorkers int) []probeOutcome {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	g, err := topo.BarabasiAlbert(60, 2, rng)
	if err != nil {
		t.Fatal(err)
	}
	net := pcn.New(g)
	balRNG := rand.New(rand.NewSource(8))
	for _, e := range g.Channels() {
		if err := net.SetBalance(e.A, e.B, 50+balRNG.Float64()*100, 50+balRNG.Float64()*100); err != nil {
			t.Fatal(err)
		}
	}
	cfg := DefaultConfig(0) // everything is an elephant
	cfg.ProbeWorkers = probeWorkers
	f := New(cfg)

	payRNG := rand.New(rand.NewSource(9))
	var out []probeOutcome
	for i := 0; i < 120; i++ {
		s := topo.NodeID(payRNG.Intn(60))
		d := topo.NodeID(payRNG.Intn(60))
		amount := 5 + payRNG.Float64()*120
		if s == d {
			continue
		}
		tx, err := net.Begin(s, d, amount)
		if err != nil {
			t.Fatal(err)
		}
		rerr := f.Route(tx)
		if !tx.Finished() {
			t.Fatalf("payment %d left unfinished", i)
		}
		out = append(out, probeOutcome{
			delivered: rerr == nil,
			probeMsgs: tx.ProbeMessages(),
			paths:     tx.PathsUsed(),
			held:      tx.HeldTotal(),
			fees:      tx.FeesPaid(),
		})
	}
	return out
}

// TestPipelinedReplayDeterministic pins the replay guarantee: a fixed
// seed and a fixed ProbeWorkers > 1 reproduce every payment's outcome,
// probing cost, path count and fees exactly: the candidate set, the
// probe order and the merge order are all functions of the knowledge
// state alone, so nothing outside the seed may reach the results.
func TestPipelinedReplayDeterministic(t *testing.T) {
	a := runElephants(t, 4)
	b := runElephants(t, 4)
	if len(a) != len(b) {
		t.Fatalf("replay produced %d vs %d payments", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("payment %d diverged between identical replays:\n first  %+v\n second %+v", i, a[i], b[i])
		}
	}
}

// knownCount returns the number of probed directed hops: the knowledge
// footprint of the probe pipeline.
func knownCount(ps *probedState) int {
	n := 0
	for _, st := range ps.known {
		if st == ps.epoch {
			n++
		}
	}
	return n
}
