package sim

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/pcn"
	"repro/internal/route"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// goldenMetrics are the sequential replay metrics of the seed engine
// (global-mutex pcn, sequential sim loop) on a fixed scenario, captured
// before the concurrency refactor. Replay must reproduce them
// bit-for-bit.
var goldenMetrics = map[string]Metrics{
	KindRipple: {
		Payments: 400, Successes: 367,
		SuccessVolume: 117379.32086693803,
		AttemptVolume: 121982.66511485772,
		FeesPaid:      2676.537731053754,
		ProbeMessages: 4410, CommitMessages: 8566,
		MicePayments: 360, MiceSuccesses: 328,
		MiceSuccessVolume: 9566.295142798359,
		MiceProbeMessages: 2514,
		ElephantPayments:  40, ElephantSuccesses: 39,
		ElephantSuccessVol: 107813.02572413968,
		ElephantProbeMsgs:  1896,
	},
	KindLightning: {
		Payments: 400, Successes: 232,
		SuccessVolume: 5.236589909823013e+08,
		AttemptVolume: 8.851510638274593e+09,
		FeesPaid:      9.923662137750087e+06,
		ProbeMessages: 10298, CommitMessages: 12458,
		MicePayments: 360, MiceSuccesses: 231,
		MiceSuccessVolume: 3.84589654198156e+08,
		MiceProbeMessages: 5754,
		ElephantPayments:  40, ElephantSuccesses: 1,
		ElephantSuccessVol: 1.3906933678414533e+08,
		ElephantProbeMsgs:  4544,
	},
}

// retriesGolden is the static replay of the golden Ripple cell with
// two retries, captured from the worker-pool replay engine before the
// static replay became a zero-churn dynamic run. Retries draw from the
// router's own RNG in the same order in both engines, so the metrics
// must not move.
var retriesGolden = Metrics{
	Payments: 400, Successes: 373,
	SuccessVolume: 117446.59434284623,
	AttemptVolume: 121982.66511485772,
	FeesPaid:      2695.3980327286254,
	ProbeMessages: 6474, CommitMessages: 10830,
	MicePayments: 360, MiceSuccesses: 334,
	MiceSuccessVolume: 9633.568618706584,
	MiceProbeMessages: 4338,
	ElephantPayments:  40, ElephantSuccesses: 39,
	ElephantSuccessVol: 107813.02572413968,
	ElephantProbeMsgs:  2136,
}

// goldenCell builds the fixed golden scenario: a 120-node network, its
// 400-payment workload, the 90%-mice threshold and a Flash router with
// the given probe width (0/1 = the sequential seed path).
func goldenCell(t *testing.T, kind string, probeWorkers int) (*pcn.Network, route.Router, []trace.Payment, float64) {
	t.Helper()
	net, err := BuildNetwork(kind, 120, 10, 0, 0, 42)
	if err != nil {
		t.Fatal(err)
	}
	cfg := trace.DefaultConfig(net.Graph().NumNodes())
	cfg.Graph = net.Graph()
	cfg.Seed = 42
	if kind == KindLightning {
		cfg.Sizes = trace.BitcoinSizes
	}
	gen, err := trace.NewGenerator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	payments := gen.Generate(400)
	threshold := core.ThresholdForMiceFraction(trace.Amounts(payments), 0.9)
	r, err := BuildRouter(RouterSpec{Scheme: SchemeFlash, Threshold: threshold, ProbeWorkers: probeWorkers, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	return net, r, payments, threshold
}

// goldenRun replays the golden cell with the given retry budget and
// flow sink.
func goldenRun(t *testing.T, kind string, retries int, sink telemetry.Sink) Metrics {
	t.Helper()
	net, r, payments, threshold := goldenCell(t, kind, 0)
	m, err := Replay(net, r, payments, threshold, retries, sink)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// goldenRunProbe replays the golden cell with Flash's probe width
// exposed.
func goldenRunProbe(t *testing.T, kind string, probeWorkers int) Metrics {
	t.Helper()
	net, r, payments, threshold := goldenCell(t, kind, probeWorkers)
	m, err := Replay(net, r, payments, threshold, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// stripDelays zeroes the wall-clock fields, the only metrics that
// legitimately vary between replays of identical work.
func stripDelays(m Metrics) Metrics {
	m.TotalDelay = 0
	m.MiceDelay = 0
	return m
}

// TestSequentialMatchesSeedGolden pins Replay — a zero-churn,
// one-station RunDynamic over the trace — to the exact metrics of the
// seed engine's sequential loop.
func TestSequentialMatchesSeedGolden(t *testing.T) {
	for kind, want := range goldenMetrics {
		if got := stripDelays(goldenRun(t, kind, 0, nil)); got != want {
			t.Errorf("%s diverged from seed golden:\n got  %+v\n want %+v", kind, got, want)
		}
	}
}

// TestRetriesMatchGolden pins static retries: two retries on the
// golden Ripple cell reproduce the worker-pool engine's metrics.
func TestRetriesMatchGolden(t *testing.T) {
	if got := stripDelays(goldenRun(t, KindRipple, 2, nil)); got != retriesGolden {
		t.Errorf("Retries=2 diverged from golden:\n got  %+v\n want %+v", got, retriesGolden)
	}
}

// TestReplayEmpty checks the empty workload: Replay returns zero
// metrics, and a zero-payment scenario, which has no success ratio to
// report, is an error.
func TestReplayEmpty(t *testing.T) {
	net, r, _, threshold := goldenCell(t, KindRipple, 0)
	m, err := Replay(net, r, nil, threshold, 2, nil)
	if err != nil || m != (Metrics{}) {
		t.Errorf("Replay(nil) = %+v, %v; want zero metrics", m, err)
	}
	sc := DefaultScenario(KindRipple, 40)
	sc.Txns = 0
	sc.Runs = 1
	if _, err := RunScenario(sc); err == nil {
		t.Error("RunScenario accepted a cell with no payments")
	}
}

// TestConcurrentReplayInvariants checks what a replay over several
// dynamic stations must still guarantee even though payment
// interleaving is free: every payment is replayed exactly once,
// classification is workers-independent, and volumes stay
// self-consistent.
func TestConcurrentReplayInvariants(t *testing.T) {
	want := goldenMetrics[KindRipple]
	got := goldenDynamicRun(t, KindRipple, DynamicOptions{Workers: 8, Seed: 42}).Aggregate
	if got.Payments != want.Payments {
		t.Errorf("payments = %d, want %d", got.Payments, want.Payments)
	}
	if got.MicePayments != want.MicePayments || got.ElephantPayments != want.ElephantPayments {
		t.Errorf("classification changed: %d mice / %d elephants, want %d / %d",
			got.MicePayments, got.ElephantPayments, want.MicePayments, want.ElephantPayments)
	}
	// Attempt volume is a float sum: completion order may shift the
	// last ulp, so compare with relative tolerance.
	if diff := math.Abs(got.AttemptVolume - want.AttemptVolume); diff > 1e-9*want.AttemptVolume {
		t.Errorf("attempt volume = %v, want %v", got.AttemptVolume, want.AttemptVolume)
	}
	if got.Successes == 0 || got.SuccessVolume <= 0 {
		t.Error("concurrent replay delivered nothing")
	}
	if got.SuccessVolume > got.AttemptVolume {
		t.Errorf("delivered %v exceeds attempted %v", got.SuccessVolume, got.AttemptVolume)
	}
	if got.Successes > got.Payments {
		t.Errorf("successes %d exceed payments %d", got.Successes, got.Payments)
	}
}
