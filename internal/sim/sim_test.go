package sim

import (
	"math"
	"testing"

	"repro/internal/pcn"
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
	if m.String() == "" {
		t.Error("String empty")
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
	m, err := Replay(net, r, payments, 50, 0, nil)
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
	m, err := Replay(net, r, payments, 10, 0, nil)
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
		if r.Name() == "" {
			t.Errorf("%s: empty name", s)
		}
	}
}

func TestBuildNetworkKinds(t *testing.T) {
	for _, kind := range []string{KindRipple, KindLightning, KindTestbed} {
		net, err := BuildNetwork(kind, 60, 10, 1000, 1500, 1)
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
	if _, err := BuildNetwork("bogus", 60, 10, 0, 0, 1); err == nil {
		t.Error("bogus kind accepted")
	}
}

func TestBuildNetworkScaleFactor(t *testing.T) {
	a, err := BuildNetwork(KindRipple, 60, 1, 0, 0, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := BuildNetwork(KindRipple, 60, 10, 0, 0, 7)
	if err != nil {
		t.Fatal(err)
	}
	ratio := b.TotalFunds() / a.TotalFunds()
	if math.Abs(ratio-10) > 1e-6 {
		t.Errorf("scale-10 funds ratio = %v, want 10", ratio)
	}
}

func TestSchemeResultAggregation(t *testing.T) {
	r := SchemeResult{Scheme: "x", Runs: []Metrics{
		{Payments: 10, Successes: 4},
		{Payments: 10, Successes: 6},
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
	results, err := RunScenario(sc)
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
		for _, m := range r.Runs {
			if m.Payments == 0 {
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

// TestRunScenarioSchemesSeeIdenticalWorkload verifies the restore logic:
// the same scheme run twice in one scenario cell yields identical
// metrics.
func TestRunScenarioSchemesSeeIdenticalWorkload(t *testing.T) {
	sc := DefaultScenario(KindRipple, 60)
	sc.Txns = 100
	sc.Runs = 1
	sc.Schemes = []string{SchemeShortestPath, SchemeShortestPath}
	results, err := RunScenario(sc)
	if err != nil {
		t.Fatal(err)
	}
	a, b := results[0].Runs[0], results[1].Runs[0]
	if a.Successes != b.Successes || a.SuccessVolume != b.SuccessVolume {
		t.Errorf("identical scheme runs diverged: %+v vs %+v", a, b)
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
