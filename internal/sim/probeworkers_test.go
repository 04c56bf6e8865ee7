package sim

import (
	"testing"
)

// TestProbeWorkersOneMatchesSeedGolden pins the acceptance criterion
// of the speculative probe pipeline: ProbeWorkers ≤ 1 must take the
// untouched sequential Algorithm 1 loop and therefore reproduce the
// seed engine's golden metrics byte for byte, on both topologies.
func TestProbeWorkersOneMatchesSeedGolden(t *testing.T) {
	for kind, want := range goldenMetrics {
		for _, probeWorkers := range []int{0, 1} {
			got := stripDelays(goldenRunProbe(t, kind, probeWorkers))
			if got != want {
				t.Errorf("%s probeworkers=%d diverged from seed golden:\n got  %+v\n want %+v",
					kind, probeWorkers, got, want)
			}
		}
	}
}

// TestProbeWorkersStaticReplayDeterministic pins the other half of the
// contract: a fixed seed and a fixed ProbeWorkers > 1 replay
// identically — the probe pool's goroutine scheduling must never leak
// into metrics. It also checks the pipeline keeps the workload intact:
// same payment count and classification as the sequential engine, and
// it still delivers.
func TestProbeWorkersStaticReplayDeterministic(t *testing.T) {
	first := stripDelays(goldenRunProbe(t, KindRipple, 4))
	second := stripDelays(goldenRunProbe(t, KindRipple, 4))
	if first != second {
		t.Errorf("probeworkers=4 replay diverged:\n first  %+v\n second %+v", first, second)
	}
	want := goldenMetrics[KindRipple]
	if first.Payments != want.Payments ||
		first.MicePayments != want.MicePayments ||
		first.ElephantPayments != want.ElephantPayments {
		t.Errorf("pipeline changed the workload: %+v vs golden %+v", first, want)
	}
	if first.ElephantSuccesses == 0 {
		t.Error("pipelined replay delivered no elephants")
	}
	// (Mice metrics are NOT asserted against the golden: mice never
	// touch the pipeline, but elephants with speculative plans commit
	// different balance movements, and later mice legitimately route
	// over that different network state.)
}

// TestProbeWorkersDynamicReplayIdentical extends the replay guarantee
// to the discrete-event engine: same seed + same ProbeWorkers ⇒
// identical event-log fingerprint and metrics, with hold spans and
// churn in play.
func TestProbeWorkersDynamicReplayIdentical(t *testing.T) {
	run := func() DynamicResult {
		sc, err := NamedDynamicScenario("steady", KindRipple, 80)
		if err != nil {
			t.Fatal(err)
		}
		sc.Duration = 10
		sc.Rate = 12
		sc.Service = 0.2
		sc.ChurnRate = 0.5
		sc.Schemes = []string{SchemeFlash}
		sc.Router.ProbeWorkers = 4
		sc.Seed = 11
		results, err := RunDynamicScenario(sc)
		if err != nil {
			t.Fatal(err)
		}
		return results[0].Result
	}
	a, b := run(), run()
	if a.Fingerprint != b.Fingerprint {
		t.Errorf("fingerprints diverged: %016x vs %016x", a.Fingerprint, b.Fingerprint)
	}
	if stripDelays(a.Aggregate) != stripDelays(b.Aggregate) {
		t.Errorf("aggregate metrics diverged:\n first  %+v\n second %+v", a.Aggregate, b.Aggregate)
	}
	if len(a.Windows) != len(b.Windows) {
		t.Fatalf("window counts diverged: %d vs %d", len(a.Windows), len(b.Windows))
	}
	for i := range a.Windows {
		if stripDelays(a.Windows[i].Metrics) != stripDelays(b.Windows[i].Metrics) {
			t.Errorf("window %d diverged", i)
		}
	}
	if a.Aggregate.Payments == 0 {
		t.Error("dynamic probeworkers run processed no payments")
	}
}
