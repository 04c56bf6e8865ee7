package core

import (
	"testing"

	"repro/internal/pcn"
	"repro/internal/topo"
)

// raceEnabled is set under the race detector (race_test.go), which makes
// sync.Pool drop items at random: the pooled probed state is then not
// reused, and allocation counts say nothing.
var raceEnabled bool

// TestElephantPlanAllocs pins what an elephant's plan and split allocate
// once the pool is warm: nothing of their own. Algorithm 1 keeps its
// paths in the probed state's arena, and program (1) is built and solved
// in the state's buffers. The network is TestElephantOffsetHoldRegression's:
// its two paths cross channel a–b in opposite directions, so the program
// has shared rows and its split an offset. The session's Probe results
// go to its probe-result arena, whose growth the session amortises, so
// they cost nothing per payment either.
func TestElephantPlanAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop items")
	}
	const s, a, b, tt, c, d = 0, 1, 2, 3, 4, 5
	hops := [][2]topo.NodeID{{s, a}, {a, b}, {b, tt}, {s, c}, {c, b}, {a, d}, {d, tt}}
	g := topo.New(6)
	for _, h := range hops {
		g.MustAddChannel(h[0], h[1])
	}
	net := pcn.New(g)
	for _, h := range hops {
		if err := net.SetBalance(h[0], h[1], 1, 0); err != nil {
			t.Fatal(err)
		}
	}
	cfg := DefaultConfig(0)
	cfg.K = 8
	f := New(cfg)
	tx, err := net.Begin(s, tt, 2)
	if err != nil {
		t.Fatal(err)
	}
	var (
		paths int
		split [2]float64
	)
	run := func() {
		plan := f.findElephantPaths(tx, cfg.K)
		if plan == nil {
			t.Fatal("no plan for the max-flow demand")
		}
		paths = len(plan.paths)
		copy(split[:], f.optimizeAllocation(plan, tx.Demand()))
		plan.state.release()
	}
	run()
	if paths != 2 || split != [2]float64{1, 1} {
		t.Fatalf("%d paths split %v, want 2 paths carrying [1 1]", paths, split)
	}
	if avg := testing.AllocsPerRun(100, run); avg != 0 {
		t.Fatalf("plan and split allocate %v per payment, want 0", avg)
	}
	if n := f.Stats().FeeProgramFallbacks; n != 0 {
		t.Fatalf("%d fee-program fallbacks", n)
	}
}
