package sim

import (
	"math/rand"
	"testing"

	"repro/internal/pcn"
	"repro/internal/telemetry"
	"repro/internal/topo"
	"repro/internal/trace"
)

// TestInlineAttemptAllocs pins what one payment costs the single-station
// engine under ShortestPath: nothing. The attempt runs inline as a
// plain call, the router holds its path table's copy of the path (each
// pair is searched once, in the warm-up run), the session's arenas fit
// a short path inline, and both the pcn.Tx and the engine's dynPayment
// record are recycled. A FlowLog sink costs nothing either: the
// observer refills its one record and the log copies it into its ring.
// Set-up (network, router, queue, windows, metrics) is paid once per
// run, so the pin is the allocation delta between a run of n payments
// and one of 2n, divided by n.
func TestInlineAttemptAllocs(t *testing.T) {
	const nodes, n = 12, 400
	net := ringNet(t, nodes)
	payments := make([]trace.Payment, 2*n)
	for i := range payments {
		s := topo.NodeID(i % nodes)
		payments[i] = trace.Payment{
			ID: i, Sender: s, Receiver: (s + 1 + topo.NodeID(i%5)) % nodes,
			Amount: 1, Time: float64(i) / trace.SecondsPerDay,
		}
	}
	r := baselineShortestPath(t)
	for _, sink := range []telemetry.Sink{nil, telemetry.NewFlowLog(16)} {
		per := perPaymentAllocs(t, payments, func(ps []trace.Payment) {
			m, err := replayWith(net, r, ps, 10, 0, sink)
			if err != nil {
				t.Fatal(err)
			}
			if m.Successes != len(ps) {
				t.Fatalf("%d/%d delivered", m.Successes, len(ps))
			}
		})
		if per != 0 {
			t.Fatalf("an inline ShortestPath payment with sink %T allocates %v, want 0", sink, per)
		}
	}
}

// TestSpanAttemptAllocs pins engine-churn's per-payment path at small
// scale at zero allocations: ShortestPath with hold spans, per-channel
// RTTs, an HTLC deadline and one retry. Suspended sessions are released
// after their Resume or Expire, failed attempts inside runAttempt, and
// retries reuse their payment's record. Every tenth payment asks more
// than any channel holds, so it fails and is retried; a few spans run
// past the deadline and expire. Arrivals are a virtual second apart,
// longer than any payment's span, deadline, backoff and latency legs
// together, so the engine's peak of pending payments and events — what
// its record list and queue grow to — is the same in both runs.
func TestSpanAttemptAllocs(t *testing.T) {
	const nodes, n = 12, 400
	net := ringNet(t, nodes)
	net.AssignLatenciesLogNormal(rand.New(rand.NewSource(1)), 0.005, 0.8)
	payments := make([]trace.Payment, 2*n)
	for i := range payments {
		s := topo.NodeID(i % nodes)
		amount := 1.0
		if i%10 == 9 {
			amount = 1e12
		}
		payments[i] = trace.Payment{
			ID: i, Sender: s, Receiver: (s + 1 + topo.NodeID(i%5)) % nodes,
			Amount: amount, Time: float64(i) / trace.SecondsPerDay,
		}
	}
	r := baselineShortestPath(t)
	opts := DynamicOptions{Workers: 1, Seed: 1, Service: 0.05, Retries: 1, Deadline: 0.25}
	run := func(ps []trace.Payment) DynamicResult {
		horizon := float64(len(ps)) + 1
		res, err := RunDynamic(net, r, trace.NewReplayStream(ps), horizon, nil, 10, opts)
		if err != nil {
			t.Fatal(err)
		}
		if res.Aggregate.Payments != len(ps) {
			t.Fatalf("%d/%d payments completed", res.Aggregate.Payments, len(ps))
		}
		return res
	}
	if res := run(payments); res.DeadlineExpiries == 0 || res.Aggregate.Successes > len(payments)*9/10 {
		t.Fatalf("%d expiries, %d/%d delivered: want expiries and every tenth payment failing",
			res.DeadlineExpiries, res.Aggregate.Successes, len(payments))
	}
	if per := perPaymentAllocs(t, payments, func(ps []trace.Payment) { run(ps) }); per != 0 {
		t.Fatalf("a ShortestPath payment with spans, RTTs, a deadline and a retry allocates %v, want 0", per)
	}
}

// ringNet is a ring of the given size funded far beyond any test
// payment.
func ringNet(t *testing.T, nodes int) *pcn.Network {
	t.Helper()
	g := topo.Ring(nodes)
	net := pcn.New(g)
	for _, e := range g.Channels() {
		if err := net.SetBalance(e.A, e.B, 1e9, 1e9); err != nil {
			t.Fatal(err)
		}
	}
	return net
}

// perPaymentAllocs is the allocation delta between running all of
// payments and running its first half, per payment of the difference.
func perPaymentAllocs(t *testing.T, payments []trace.Payment, run func([]trace.Payment)) float64 {
	t.Helper()
	allocs := func(ps []trace.Payment) float64 {
		return testing.AllocsPerRun(5, func() { run(ps) })
	}
	half := len(payments) / 2
	allocs(payments) // warm the free lists
	return (allocs(payments) - allocs(payments[:half])) / float64(len(payments)-half)
}
