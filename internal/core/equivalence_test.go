package core

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/pcn"
	"repro/internal/route"
	"repro/internal/topo"
)

// TestAlgorithm1MatchesMaxFlowProperty links the paper's Algorithm 1 to
// the classic algorithm it modifies: with an unbounded path budget and
// no early exit, the flow it discovers through lazy probing must equal
// the true Edmonds–Karp max-flow value (and therefore satisfy any
// demand at or below it). This is the correctness core of elephant
// routing: bounding k and probing lazily trades only *probing cost*,
// never soundness of the discovered flow.
func TestAlgorithm1MatchesMaxFlowProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
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
		// Ground truth with full knowledge.
		truth := graph.MaxFlow(g, s, d, func(u, v topo.NodeID) float64 {
			return net.Balance(u, v)
		}, -1)
		if truth.Value <= 0 {
			continue
		}
		// Algorithm 1 with demand = max flow, unbounded paths, no early
		// exit: it must find the whole flow through probing alone.
		cfg := DefaultConfig(0)
		cfg.K = n * n // effectively unbounded
		cfg.ProbeAllK = true
		f := New(cfg)
		tx, err := net.Begin(s, d, truth.Value)
		if err != nil {
			t.Fatal(err)
		}
		plan := f.findElephantPaths(tx, cfg.K)
		if plan == nil {
			t.Fatalf("trial %d: Algorithm 1 found no plan for demand %v (= max flow)", trial, truth.Value)
		}
		if math.Abs(plan.flow-truth.Value) > 1e-6 {
			t.Fatalf("trial %d: Algorithm 1 flow %v ≠ Edmonds-Karp %v", trial, plan.flow, truth.Value)
		}
		// And the full routing pipeline delivers that demand.
		if err := f.routeWithPlan(tx, plan); err != nil {
			t.Fatalf("trial %d: routing max-flow demand failed: %v", trial, err)
		}
		if n := f.Stats().FeeProgramFallbacks; n != 0 {
			t.Fatalf("trial %d: %d fee-program fallbacks", trial, n)
		}
	}
}

// routeWithPlan finishes an elephant session from an existing plan
// (test helper mirroring routeElephant's allocation stage).
func (f *Flash) routeWithPlan(s route.Session, plan *elephantPlan) error {
	alloc := f.optimizeAllocation(plan, s.Demand())
	remaining := s.Demand()
	for i, amount := range alloc {
		if amount <= route.Epsilon || remaining <= route.Epsilon {
			continue
		}
		if amount > remaining {
			amount = remaining
		}
		remaining -= route.HoldUpTo(s, plan.paths[i], amount)
	}
	if remaining > route.Epsilon {
		for _, p := range plan.paths {
			if remaining <= route.Epsilon {
				break
			}
			remaining -= route.HoldUpTo(s, p, remaining)
		}
	}
	return route.Finish(s, route.ErrInsufficient)
}

// findElephantPathsUnfloored is the sequential loop of findElephantPaths
// as it was before rounds carried a floor or resumed the round before: every
// round starts a new sequence, so its search deepens from the reverse tree's
// bound.
func (f *Flash) findElephantPathsUnfloored(s route.Session, k int) *elephantPlan {
	g := s.Graph()
	ps := acquireProbedState(g)
	plan := &elephantPlan{state: ps}
	sc := graph.AcquireScratch()
	defer graph.ReleaseScratch(sc)
	for len(plan.paths) < k {
		p := sc.AugmentingPath(g, s.Sender(), s.Receiver(), ps.usableCh, true)
		if p.IsZero() {
			break
		}
		p, _ = p.AppendTo(nil)
		info, err := route.Probe(s, p)
		if err != nil {
			break
		}
		ps.record(p, info)
		plan.accept(p, ps.bottleneck(p))
		if !f.cfg.ProbeAllK && plan.flow >= s.Demand()-route.Epsilon {
			return plan
		}
	}
	if plan.flow >= s.Demand()-route.Epsilon {
		return plan
	}
	ps.release()
	return nil
}

// TestElephantFloorChangesNothing: running Algorithm 1's rounds as one
// augmenting sequence — each round continuing the depth-first pass the round
// before stopped in, at the hop count it proved — is a pure saving. On random
// graphs with random balances — a third of the directions empty, so probes
// close hops and residual updates reopen reverses — the resumed rounds must
// find the same paths with the same flows, in the same order, for the same
// probes, as rounds that each search from scratch; the path lengths must
// never shrink from round to round, which is what both the floor and the
// resume rest on; and a plan is refused in the same cases. Enough rounds must
// keep the hop count of the round before — the rounds that resume a pass —
// for the comparison to test the resume.
func TestElephantFloorChangesNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	plans, multi, kept := 0, 0, 0
	for trial := 0; trial < 300; trial++ {
		n := 10 + rng.Intn(40)
		g, err := topo.BarabasiAlbert(n, 1+rng.Intn(3), rng)
		if err != nil {
			t.Fatal(err)
		}
		net := pcn.New(g)
		bal := func() float64 {
			if rng.Intn(3) == 0 {
				return 0
			}
			return float64(1 + rng.Intn(30))
		}
		for _, e := range g.Channels() {
			if err := net.SetBalance(e.A, e.B, bal(), bal()); err != nil {
				t.Fatal(err)
			}
		}
		s, d := topo.NodeID(rng.Intn(n)), topo.NodeID(rng.Intn(n))
		if s == d {
			continue
		}
		cfg := DefaultConfig(0)
		cfg.K = 1 + rng.Intn(20)
		cfg.ProbeAllK = rng.Intn(2) == 0
		f := New(cfg)
		demand := float64(1 + rng.Intn(60))
		find := func(find func(route.Session, int) *elephantPlan) (*elephantPlan, *pcn.Tx) {
			tx, err := net.Begin(s, d, demand)
			if err != nil {
				t.Fatal(err)
			}
			plan := find(tx, cfg.K)
			if err := tx.Abort(); err != nil { // probes are reads: the network is as it was
				t.Fatal(err)
			}
			return plan, tx
		}
		want, wantTx := find(f.findElephantPathsUnfloored)
		got, gotTx := find(f.findElephantPaths)
		if gotTx.ProbeOps() != wantTx.ProbeOps() || gotTx.ProbeMessages() != wantTx.ProbeMessages() {
			t.Fatalf("trial %d: %d probes (%d messages) resumed, %d (%d) from scratch",
				trial, gotTx.ProbeOps(), gotTx.ProbeMessages(), wantTx.ProbeOps(), wantTx.ProbeMessages())
		}
		if (got == nil) != (want == nil) {
			t.Fatalf("trial %d: plan %v resumed, %v from scratch", trial, got, want)
		}
		if got == nil {
			continue
		}
		plans++
		if len(got.paths) != len(want.paths) || got.flow != want.flow {
			t.Fatalf("trial %d: %d paths, flow %v resumed; %d paths, flow %v from scratch",
				trial, len(got.paths), got.flow, len(want.paths), want.flow)
		}
		for i := range want.paths {
			if !got.paths[i].Equal(want.paths[i]) || got.pathFlows[i] != want.pathFlows[i] {
				t.Fatalf("trial %d round %d: %v carrying %v resumed, %v carrying %v from scratch",
					trial, i, got.paths[i], got.pathFlows[i], want.paths[i], want.pathFlows[i])
			}
			if i > 0 && want.paths[i].Hops() < want.paths[i-1].Hops() {
				t.Fatalf("trial %d round %d: path %v is shorter than the round before's %v",
					trial, i, want.paths[i], want.paths[i-1])
			}
			if i > 0 && want.paths[i].Hops() == want.paths[i-1].Hops() {
				kept++
			}
		}
		if len(want.paths) > 2 && want.paths[len(want.paths)-1].Hops() > want.paths[0].Hops() {
			multi++
		}
		got.state.release()
		want.state.release()
	}
	if plans < 50 || multi < 10 || kept < 100 {
		t.Fatalf("%d plans, %d of them with rounds of growing length, %d rounds resuming the one before: too few to test the floor and the resume",
			plans, multi, kept)
	}
}
