package sim

import (
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
	net, err := BuildNetwork(kind, 120, 10, 42)
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

// replayWith is Replay with a retry budget and a flow sink.
func replayWith(net *pcn.Network, r route.Router, payments []trace.Payment, miceThreshold float64, retries int, sink telemetry.Sink) (Metrics, error) {
	if len(payments) == 0 {
		return Metrics{}, nil
	}
	horizon := (payments[len(payments)-1].Time + 1) * trace.SecondsPerDay
	res, err := RunDynamic(net, r, trace.NewReplayStream(payments), horizon, nil, miceThreshold,
		DynamicOptions{Workers: 1, Retries: retries, FlowSink: sink})
	return res.Aggregate, err
}

// goldenRun replays the golden cell with the given retry budget and
// flow sink.
func goldenRun(t *testing.T, kind string, retries int, sink telemetry.Sink) Metrics {
	t.Helper()
	net, r, payments, threshold := goldenCell(t, kind, 0)
	m, err := replayWith(net, r, payments, threshold, retries, sink)
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
	m, err := Replay(net, r, payments, threshold)
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
	m, err := Replay(net, r, nil, threshold)
	if err != nil || m != (Metrics{}) {
		t.Errorf("Replay(nil) = %+v, %v; want zero metrics", m, err)
	}
	sc := DefaultScenario(KindRipple, 40)
	sc.Txns = 0
	sc.Runs = 1
	if _, err := Run(sc); err == nil {
		t.Error("Run accepted a replay with no payments")
	}
}

// TestStationsReplayMatchesGolden pins the replay over eight stations
// to the one-station golden. At Service = 0 a payment settles at its
// arrival instant, so a waiting arrival only ever waits for settles at
// that same instant: payments route in trace order at any station
// count, and the metrics are the seed golden's, bit for bit.
func TestStationsReplayMatchesGolden(t *testing.T) {
	for kind, want := range goldenMetrics {
		got := stripDelays(goldenDynamicRun(t, kind, DynamicOptions{Workers: 8, Seed: 42}).Aggregate)
		if got != want {
			t.Errorf("%s: eight stations diverged from the one-station golden:\n got  %+v\n want %+v", kind, got, want)
		}
	}
}
