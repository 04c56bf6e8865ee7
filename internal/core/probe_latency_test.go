package core

import (
	"math/rand"
	"testing"
)

// TestProbeWorkersCompressProbeLatency pins the virtual-latency
// contract of the speculative pipeline on the edge-disjoint fan
// fixture, where every candidate is a 2-hop path with identical RTT
// cost: sequential probing pays every candidate's round trip in
// series, while a pipelined round is charged only its slowest
// candidate (creditRoundOverlap returns the Σ−max surplus), so
// ProbeWorkers=4 collapses 8 serial round trips to 2 round-widths.
func TestProbeWorkersCompressProbeLatency(t *testing.T) {
	const (
		paths  = 8
		rtt    = 0.01 // seconds per channel, both directions
		demand = 750  // needs all 8 paths of 100
	)
	run := func(workers int) int64 {
		net, s, d := parallelFixture(t, paths, 100)
		// σ = 0: every channel's RTT is exactly the median.
		net.AssignLatenciesLogNormal(rand.New(rand.NewSource(1)), rtt, 0)
		cfg := DefaultConfig(0)
		cfg.K = paths
		cfg.ProbeWorkers = workers
		f := New(cfg)
		tx, err := net.Begin(s, d, demand)
		if err != nil {
			t.Fatal(err)
		}
		if plan := f.findElephantPaths(tx, cfg.K); plan == nil {
			t.Fatalf("workers=%d: no plan for feasible demand", workers)
		}
		return tx.ProbeLatencyNanos()
	}

	perProbe := int64(2 * rtt * 1e9) // 2 hops per candidate path
	lat1 := run(1)
	if want := int64(paths) * perProbe; lat1 != want {
		t.Errorf("sequential probe latency = %dns, want %dns (8 serial 2-hop round trips)", lat1, want)
	}
	lat4 := run(4)
	if want := 2 * perProbe; lat4 != want {
		t.Errorf("pipelined probe latency = %dns, want %dns (2 rounds, slowest candidate each)", lat4, want)
	}
	if lat4 >= lat1 {
		t.Errorf("ProbeWorkers=4 did not reduce probe latency: %dns >= %dns", lat4, lat1)
	}
}
