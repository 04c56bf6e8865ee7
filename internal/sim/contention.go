package sim

import (
	"fmt"

	"repro/internal/pcn"
	"repro/internal/topo"
	"repro/internal/trace"
)

// BuildContention constructs the contention fixture: a barbell network
// whose every payment is forced through one shared bridge channel, the
// worst case for overlapping holds. spokes sender nodes hang off hub A,
// spokes receiver nodes off hub B, and A—B is the only cut between
// them:
//
//	s₀ … s₋₁  →  A ══ B  →  r₀ … r₋₁
//
// Spoke channels carry spokeBal per direction; the bridge carries
// bridgeBal per direction. Sized so the bridge is the bottleneck
// (bridgeBal < spokes·spokeBal), overlapping payments compete for the
// same balance from both sides: some holds must lose, none may
// overbook, and committed volume through the bridge can never exceed
// what the bridge held.
//
// The returned payments send amount from every sender spoke to every
// receiver spoke, round-robin, IDs in dispatch order — a workload with
// maximal channel sharing, exercised by the contention tests.
func BuildContention(spokes int, spokeBal, bridgeBal, amount float64) (*pcn.Network, []trace.Payment, error) {
	if spokes < 1 {
		return nil, nil, fmt.Errorf("sim: contention needs ≥ 1 spokes, got %d", spokes)
	}
	if spokeBal <= 0 || bridgeBal <= 0 || amount <= 0 {
		return nil, nil, fmt.Errorf("sim: contention balances and amount must be positive")
	}
	// Node layout: senders 0..spokes-1, hubA = spokes, hubB = spokes+1,
	// receivers spokes+2 .. 2*spokes+1.
	g := topo.New(2*spokes + 2)
	hubA := topo.NodeID(spokes)
	hubB := topo.NodeID(spokes + 1)
	for i := 0; i < spokes; i++ {
		g.MustAddChannel(topo.NodeID(i), hubA)
		g.MustAddChannel(hubB, topo.NodeID(spokes+2+i))
	}
	g.MustAddChannel(hubA, hubB)

	net := pcn.New(g)
	for i := 0; i < spokes; i++ {
		if err := net.SetBalance(topo.NodeID(i), hubA, spokeBal, spokeBal); err != nil {
			return nil, nil, err
		}
		if err := net.SetBalance(hubB, topo.NodeID(spokes+2+i), spokeBal, spokeBal); err != nil {
			return nil, nil, err
		}
	}
	if err := net.SetBalance(hubA, hubB, bridgeBal, bridgeBal); err != nil {
		return nil, nil, err
	}

	payments := make([]trace.Payment, 0, spokes*spokes)
	id := 0
	for i := 0; i < spokes; i++ {
		for j := 0; j < spokes; j++ {
			payments = append(payments, trace.Payment{
				ID:       id,
				Sender:   topo.NodeID(i),
				Receiver: topo.NodeID(spokes + 2 + (i+j)%spokes),
				Amount:   amount,
			})
			id++
		}
	}
	return net, payments, nil
}
