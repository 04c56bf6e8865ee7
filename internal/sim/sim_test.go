package sim

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/pcn"
	"repro/internal/telemetry"
	"repro/internal/topo"
	"repro/internal/trace"
)

func TestMetricsDerived(t *testing.T) {
	m := Metrics{
		Payments: 10, Successes: 5,
		SuccessVolume: 200, FeesPaid: 4,
		MicePayments: 8, MiceSuccesses: 6,
	}
	if got := m.SuccessRatio(); got != 0.5 {
		t.Errorf("SuccessRatio = %v", got)
	}
	if got := m.FeeRatio(); got != 0.02 {
		t.Errorf("FeeRatio = %v", got)
	}
	if got := m.MiceSuccessRatio(); got != 0.75 {
		t.Errorf("MiceSuccessRatio = %v", got)
	}
	var zero Metrics
	if zero.SuccessRatio() != 0 || zero.FeeRatio() != 0 || zero.MeanDelay() != 0 ||
		zero.MeanMiceDelay() != 0 || zero.MiceSuccessRatio() != 0 {
		t.Error("zero metrics should yield zero derived values")
	}
}

func TestRunBasic(t *testing.T) {
	g := topo.Line(3)
	net := pcn.New(g)
	net.SetBalance(0, 1, 100, 100)
	net.SetBalance(1, 2, 100, 100)
	r, err := BuildRouter(RouterSpec{Scheme: SchemeShortestPath, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	payments := []trace.Payment{
		{ID: 0, Sender: 0, Receiver: 2, Amount: 30},
		{ID: 1, Sender: 0, Receiver: 2, Amount: 30},
		{ID: 2, Sender: 0, Receiver: 2, Amount: 100}, // exceeds remaining 40
	}
	m, err := Replay(net, r, payments, 50)
	if err != nil {
		t.Fatal(err)
	}
	if m.Payments != 3 || m.Successes != 2 {
		t.Errorf("payments/successes = %d/%d, want 3/2", m.Payments, m.Successes)
	}
	if m.SuccessVolume != 60 {
		t.Errorf("success volume = %v, want 60", m.SuccessVolume)
	}
	if m.MicePayments != 2 || m.ElephantPayments != 1 {
		t.Errorf("classification = %d mice / %d elephants", m.MicePayments, m.ElephantPayments)
	}
}

func TestRunSkipsDegeneratePayments(t *testing.T) {
	g := topo.Line(2)
	net := pcn.New(g)
	net.SetBalance(0, 1, 10, 10)
	r, _ := BuildRouter(RouterSpec{Scheme: SchemeShortestPath, Seed: 1})
	payments := []trace.Payment{
		{Sender: 0, Receiver: 0, Amount: 5}, // self
		{Sender: 0, Receiver: 1, Amount: 0}, // zero
		{Sender: 0, Receiver: 1, Amount: 5},
	}
	m, err := Replay(net, r, payments, 10)
	if err != nil {
		t.Fatal(err)
	}
	if m.Payments != 1 || m.Successes != 1 {
		t.Errorf("got %d/%d, want 1/1", m.Successes, m.Payments)
	}
}

func TestNewRouterUnknown(t *testing.T) {
	if _, err := BuildRouter(RouterSpec{Scheme: "nope", Seed: 1}); err == nil {
		t.Error("unknown scheme accepted")
	}
}

func TestNewRouterAllSchemes(t *testing.T) {
	for _, s := range []string{SchemeFlash, SchemeFlashNoOpt, SchemeSpider,
		SchemeSpeedyMurmurs, SchemeShortestPath, SchemeMaxFlow} {
		r, err := BuildRouter(RouterSpec{Scheme: s, Threshold: 100, Seed: 1})
		if err != nil {
			t.Errorf("%s: %v", s, err)
			continue
		}
		if r.Name() != s {
			t.Errorf("%s: router named %q", s, r.Name())
		}
	}
}

func TestBuildNetworkKinds(t *testing.T) {
	for _, kind := range []string{KindRipple, KindLightning, KindTestbed} {
		net, err := BuildNetwork(kind, 60, 10, 1)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if net.Graph().NumNodes() != 60 {
			t.Errorf("%s: nodes = %d", kind, net.Graph().NumNodes())
		}
		if net.TotalFunds() <= 0 {
			t.Errorf("%s: no funds assigned", kind)
		}
	}
	if _, err := BuildNetwork("bogus", 60, 10, 1); err == nil {
		t.Error("bogus kind accepted")
	}
}

func TestBuildNetworkScaleFactor(t *testing.T) {
	a, err := BuildNetwork(KindRipple, 60, 1, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := BuildNetwork(KindRipple, 60, 10, 7)
	if err != nil {
		t.Fatal(err)
	}
	ratio := b.TotalFunds() / a.TotalFunds()
	if math.Abs(ratio-10) > 1e-6 {
		t.Errorf("scale-10 funds ratio = %v, want 10", ratio)
	}
}

func TestSchemeResultAggregation(t *testing.T) {
	r := SchemeResult{Scheme: "x", Runs: []DynamicResult{
		{Aggregate: Metrics{Payments: 10, Successes: 4}},
		{Aggregate: Metrics{Payments: 10, Successes: 6}},
	}}
	if got := r.Mean(Metrics.SuccessRatio); got != 0.5 {
		t.Errorf("mean ratio = %v", got)
	}
	var empty SchemeResult
	if empty.Mean(Metrics.SuccessRatio) != 0 {
		t.Error("empty mean should be 0")
	}
}

// TestRunScenarioSmall is the end-to-end smoke test: a small Ripple-like
// scenario must complete, and Flash must not trail the static baselines
// on success volume.
func TestRunScenarioSmall(t *testing.T) {
	sc := DefaultScenario(KindRipple, 100)
	sc.Txns = 300
	sc.Runs = 2
	results, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(PaperSchemes) {
		t.Fatalf("got %d scheme results", len(results))
	}
	vol := map[string]float64{}
	for _, r := range results {
		if len(r.Runs) != 2 {
			t.Fatalf("%s: %d runs, want 2", r.Scheme, len(r.Runs))
		}
		vol[r.Scheme] = r.Mean(func(m Metrics) float64 { return m.SuccessVolume })
		for _, res := range r.Runs {
			if res.Aggregate.Payments == 0 {
				t.Fatalf("%s: no payments replayed", r.Scheme)
			}
		}
	}
	if vol[SchemeFlash] < vol[SchemeShortestPath] {
		t.Errorf("Flash volume %v below ShortestPath %v", vol[SchemeFlash], vol[SchemeShortestPath])
	}
	if vol[SchemeFlash] < vol[SchemeSpeedyMurmurs] {
		t.Errorf("Flash volume %v below SpeedyMurmurs %v", vol[SchemeFlash], vol[SchemeSpeedyMurmurs])
	}
}

// TestRunScenarioSchemesSeeIdenticalWorkload verifies that every scheme
// of a run gets the same funding and workload: the same scheme run
// twice in one scenario cell yields identical metrics.
func TestRunScenarioSchemesSeeIdenticalWorkload(t *testing.T) {
	sc := DefaultScenario(KindRipple, 60)
	sc.Txns = 100
	sc.Runs = 1
	sc.Schemes = []string{SchemeShortestPath, SchemeShortestPath}
	results, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	a, b := results[0].Runs[0].Aggregate, results[1].Runs[0].Aggregate
	if a.Successes != b.Successes || a.SuccessVolume != b.SuccessVolume {
		t.Errorf("identical scheme runs diverged: %+v vs %+v", a, b)
	}
}

// TestFlowRecordsCarrySchemeName: with Flash and Flash-NoOpt in one
// replay, each scheme's flow records carry its own name, so the two
// never add into one flow or metric series.
func TestFlowRecordsCarrySchemeName(t *testing.T) {
	sc := DefaultScenario(KindRipple, 60)
	sc.Txns, sc.Runs = 20, 1
	sc.Schemes = []string{SchemeFlash, SchemeFlashNoOpt, SchemeSpider}
	sink := telemetry.NewFlowLog(1 << 8)
	sc.FlowSink = sink
	if _, err := Run(sc); err != nil {
		t.Fatal(err)
	}
	perScheme := map[string]int{}
	for _, r := range sink.Snapshot() {
		perScheme[r.Scheme]++
	}
	for _, s := range sc.Schemes {
		if perScheme[s] != sc.Txns {
			t.Errorf("%s: %d flow records, want %d (all: %v)", s, perScheme[s], sc.Txns, perScheme)
		}
	}
	if len(perScheme) != len(sc.Schemes) {
		t.Errorf("flow records name schemes %v, want exactly %v", perScheme, sc.Schemes)
	}
}

// TestReplayThresholdTakesEveryPayment pins the replay's elephant
// threshold to the MiceFraction quantile of all Txns payments, as the
// paper calibrates it per workload — not to a clamped sample, which
// would move Figure 7's 5,000- and 6,000-payment cells.
func TestReplayThresholdTakesEveryPayment(t *testing.T) {
	sc := DefaultScenario(KindRipple, 60)
	sc.Txns, sc.Runs, sc.Schemes = 5000, 1, []string{SchemeShortestPath}
	results, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	gen, err := workloadFor(sc.Kind, mustNetwork(t, sc).Graph(), sc.Seed)
	if err != nil {
		t.Fatal(err)
	}
	amounts := trace.Amounts(gen.Generate(sc.Txns))
	want := core.ThresholdForMiceFraction(amounts, sc.MiceFraction)
	if prefix := core.ThresholdForMiceFraction(amounts[:4000], sc.MiceFraction); prefix == want {
		t.Fatalf("the first 4,000 payments give the same threshold %v; the cell cannot tell them apart", want)
	}
	res := results[0].Runs[0]
	if res.FinalThreshold != want {
		t.Errorf("threshold = %v, want %v (all %d payments)", res.FinalThreshold, want, sc.Txns)
	}
	mice := 0
	for _, a := range amounts {
		if a <= want {
			mice++
		}
	}
	if res.Aggregate.Payments != sc.Txns || res.Aggregate.MicePayments != mice {
		t.Errorf("%d payments, %d mice; want %d and %d", res.Aggregate.Payments, res.Aggregate.MicePayments, sc.Txns, mice)
	}
}

// mustNetwork builds the network of sc's first run.
func mustNetwork(t *testing.T, sc Scenario) *pcn.Network {
	t.Helper()
	net, err := BuildNetwork(sc.Kind, sc.Nodes, sc.ScaleFactor, sc.Seed)
	if err != nil {
		t.Fatal(err)
	}
	return net
}

// TestRunsStrideSeeds pins the run seeds of a timed arrival: a cell
// at Runs 2 is the two one-run cells at Seed and Seed + 7919, event
// log and metrics alike, and the two runs differ.
func TestRunsStrideSeeds(t *testing.T) {
	sc, err := NamedScenario("churn", KindRipple, 60)
	if err != nil {
		t.Fatal(err)
	}
	sc.Duration, sc.Rate, sc.Seed = 5, 8, 3
	sc.Schemes = []string{SchemeFlash, SchemeShortestPath}
	run := func(runs int, seed int64) []SchemeResult {
		c := sc
		c.Runs, c.Seed = runs, seed
		results, err := Run(c)
		if err != nil {
			t.Fatal(err)
		}
		return results
	}
	both := run(2, 3)
	for k, seed := range []int64{3, 3 + 7919} {
		one := run(1, seed)
		for i, r := range both {
			got, want := r.Runs[k], one[i].Runs[0]
			if got.Fingerprint != want.Fingerprint || stripDelays(got.Aggregate) != stripDelays(want.Aggregate) {
				t.Errorf("%s run %d: fingerprint %016x, %v; want seed %d's %016x, %v", r.Scheme, k,
					got.Fingerprint, got.Aggregate, seed, want.Fingerprint, want.Aggregate)
			}
		}
	}
	for _, r := range both {
		if r.Runs[0].Fingerprint == r.Runs[1].Fingerprint {
			t.Errorf("%s: both runs have fingerprint %016x", r.Scheme, r.Runs[0].Fingerprint)
		}
	}
}

// merge folds another shard's counters into m. Every field is an
// order-independent sum, so the tests can check that a dynamic run's
// time-series windows sum to its aggregate.
func (m *Metrics) merge(o Metrics) {
	m.Payments += o.Payments
	m.Successes += o.Successes
	m.SuccessVolume += o.SuccessVolume
	m.AttemptVolume += o.AttemptVolume
	m.FeesPaid += o.FeesPaid
	m.ProbeMessages += o.ProbeMessages
	m.CommitMessages += o.CommitMessages
	m.MicePayments += o.MicePayments
	m.MiceSuccesses += o.MiceSuccesses
	m.MiceSuccessVolume += o.MiceSuccessVolume
	m.MiceProbeMessages += o.MiceProbeMessages
	m.ElephantPayments += o.ElephantPayments
	m.ElephantSuccesses += o.ElephantSuccesses
	m.ElephantSuccessVol += o.ElephantSuccessVol
	m.ElephantProbeMsgs += o.ElephantProbeMsgs
	m.TotalDelay += o.TotalDelay
	m.MiceDelay += o.MiceDelay
}
