package sim

import (
	"runtime/debug"
	"testing"

	"repro/internal/pcn"
	"repro/internal/topo"
	"repro/internal/trace"
)

// raceEnabled is set under the race detector (race_test.go), which makes
// sync.Pool drop items at random: the pooled search Scratch is then not
// reused, and allocation counts say nothing.
var raceEnabled bool

// TestInlineAttemptAllocs pins what one payment costs the single-station
// engine under ShortestPath: its dynPayment and its pcn.Tx, nothing
// else. The attempt runs inline as a plain call, the router holds its
// path table's copy of the path (each pair is searched once, in the
// warm-up run), and the session's arenas fit a short path inline. Set-up (network, router, queue, windows, metrics) is paid once
// per run, so the pin is the allocation delta between a run of n
// payments and one of 2n, divided by n, with the collector off.
func TestInlineAttemptAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop items")
	}
	const nodes, n = 12, 400
	g := topo.Ring(nodes)
	net := pcn.New(g)
	for _, e := range g.Channels() {
		if err := net.SetBalance(e.A, e.B, 1e9, 1e9); err != nil {
			t.Fatal(err)
		}
	}
	payments := make([]trace.Payment, 2*n)
	for i := range payments {
		s := topo.NodeID(i % nodes)
		payments[i] = trace.Payment{
			ID: i, Sender: s, Receiver: (s + 1 + topo.NodeID(i%5)) % nodes,
			Amount: 1, Time: float64(i) / trace.SecondsPerDay,
		}
	}
	r := baselineShortestPath(t)
	// A collection empties sync.Pool, and the next search would then
	// allocate a Scratch that a longer run is likelier to pay for.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	allocs := func(ps []trace.Payment) float64 {
		return testing.AllocsPerRun(5, func() {
			m, err := Replay(net, r, ps, 10, 0, nil)
			if err != nil {
				t.Fatal(err)
			}
			if m.Successes != len(ps) {
				t.Fatalf("%d/%d delivered", m.Successes, len(ps))
			}
		})
	}
	allocs(payments) // warm the pools
	if per := (allocs(payments) - allocs(payments[:n])) / n; per != 2 {
		t.Fatalf("an inline ShortestPath payment allocates %v, want 2 (its dynPayment and its Tx)", per)
	}
}
