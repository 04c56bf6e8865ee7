package baseline_test

import (
	"math/rand"
	"testing"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/pcn"
	"repro/internal/route"
	"repro/internal/topo"
)

// TestMaxFlowBoundsFlash is the upper-bound property: on random funded
// scale-free graphs, every payment Flash delivers is also delivered by
// MaxFlowFullProbe from the same balances. Flash runs at threshold 0,
// so every payment is an elephant and takes Algorithm 1, the k-bounded
// max-flow that MaxFlowFullProbe runs unbounded.
func TestMaxFlowBoundsFlash(t *testing.T) {
	const seeds, payments = 200, 20
	delivered, attempted := 0, 0
	for seed := int64(1); seed <= seeds; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 30 + rng.Intn(40)
		g, err := topo.BarabasiAlbert(n, 2, rng)
		if err != nil {
			t.Fatal(err)
		}
		net := pcn.New(g)
		for _, e := range g.Channels() {
			if err := net.SetBalance(e.A, e.B, rng.Float64()*100, rng.Float64()*100); err != nil {
				t.Fatal(err)
			}
		}
		funded := net.Snapshot()
		flash := core.New(core.DefaultConfig(0))
		bound := baseline.NewMaxFlowFullProbe()
		pay := func(r route.Router, s, d topo.NodeID, amount float64) bool {
			if err := net.Restore(funded); err != nil {
				t.Fatal(err)
			}
			tx, err := net.Begin(s, d, amount)
			if err != nil {
				t.Fatal(err)
			}
			return r.Route(tx) == nil
		}
		for i := 0; i < payments; i++ {
			s, d := topo.NodeID(rng.Intn(n)), topo.NodeID(rng.Intn(n))
			if s == d {
				continue
			}
			amount := 20 + rng.Float64()*200
			attempted++
			if !pay(flash, s, d, amount) {
				continue
			}
			delivered++
			if !pay(bound, s, d, amount) {
				t.Errorf("seed %d payment %d: Flash delivers %v from %d to %d, MaxFlowFullProbe fails", seed, i, amount, s, d)
			}
		}
	}
	t.Logf("Flash delivered %d of %d payments", delivered, attempted)
}
