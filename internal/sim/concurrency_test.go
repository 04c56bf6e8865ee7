package sim

import (
	"math"
	"testing"

	"repro/internal/core"
)

// TestContentionAllThroughSharedBridge replays the contention workload
// — every payment crossing the same bridge channel — on many dynamic
// stations over a bridge that cannot carry them all at once. Holds
// race from both sides; the invariants must survive any interleaving.
// Run with -race.
func TestContentionAllThroughSharedBridge(t *testing.T) {
	const (
		spokes    = 6
		spokeBal  = 1000.0
		bridgeBal = 100.0
		amount    = 30.0
	)
	net, payments, err := BuildContention(spokes, spokeBal, bridgeBal, amount)
	if err != nil {
		t.Fatal(err)
	}
	if len(payments) != spokes*spokes {
		t.Fatalf("payments = %d, want %d", len(payments), spokes*spokes)
	}
	before := net.TotalFunds()

	r := core.New(core.DefaultConfig(math.Inf(1))) // all mice
	m := replayTrace(t, net, r, payments, math.Inf(1), DynamicOptions{Workers: 8, Seed: 7}).Aggregate

	if m.Payments != len(payments) {
		t.Errorf("replayed %d payments, want %d", m.Payments, len(payments))
	}
	// The bridge begins with bridgeBal in the forward direction; every
	// success moves amount across it. Reverse flow could in principle
	// recharge it, but all payments push the same way, so committed
	// volume can never exceed the initial forward balance.
	if m.SuccessVolume > bridgeBal+1e-9 {
		t.Errorf("delivered %v through a bridge holding %v", m.SuccessVolume, bridgeBal)
	}
	// And the two-phase commit must not let contention destroy liveness:
	// the bridge's forward balance is fully spendable, so at least
	// ⌊bridgeBal/amount⌋ payments fit.
	if want := int(math.Floor(bridgeBal / amount)); m.Successes < want {
		t.Errorf("only %d successes, bridge capacity admits %d", m.Successes, want)
	}
	after := net.TotalFunds()
	if math.Abs(after-before) > 1e-6*before {
		t.Errorf("funds not conserved: before %v, after %v", before, after)
	}
}

// TestBuildContentionValidation covers the error paths.
func TestBuildContentionValidation(t *testing.T) {
	if _, _, err := BuildContention(0, 1, 1, 1); err == nil {
		t.Error("0 spokes accepted")
	}
	if _, _, err := BuildContention(3, 0, 1, 1); err == nil {
		t.Error("zero spoke balance accepted")
	}
	if _, _, err := BuildContention(3, 1, 1, 0); err == nil {
		t.Error("zero amount accepted")
	}
}

// TestConcurrentScenarioRuns exercises the full stack concurrently:
// ParallelSchemes races the schemes' replays against each other. Run
// with -race.
func TestConcurrentScenarioRuns(t *testing.T) {
	sc := DefaultScenario(KindRipple, 80)
	sc.Txns = 150
	sc.Runs = 1
	sc.ParallelSchemes = true
	results, err := RunScenario(sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(PaperSchemes) {
		t.Fatalf("got %d scheme results", len(results))
	}
	for _, r := range results {
		for _, m := range r.Runs {
			if m.Payments == 0 {
				t.Errorf("%s: no payments replayed", r.Scheme)
			}
			if m.Successes > m.Payments || m.SuccessVolume > m.AttemptVolume+1e-9 {
				t.Errorf("%s: inconsistent metrics %+v", r.Scheme, m)
			}
		}
	}
}
