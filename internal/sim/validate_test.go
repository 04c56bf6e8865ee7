package sim

import (
	"math"
	"strings"
	"testing"

	"repro/internal/control"
	"repro/internal/trace"
)

// invalidSource is a PaymentSource whose self-check fails — the shape
// of a stream built over a degenerate arrival process.
type invalidSource struct{ trace.PaymentSource }

func (invalidSource) Next() (trace.Payment, float64, bool) { return trace.Payment{}, 0, false }
func (invalidSource) Validate() error {
	return trace.Poisson{}.Validate() // the zero-rate error, verbatim
}

// TestRunDynamicValidatesSource pins the non-positive-rate fix at the
// engine boundary: calling RunDynamic directly — bypassing
// RunDynamicScenario's validation — with a source that reports a
// degenerate arrival process returns a clear error instead of
// scheduling +Inf/NaN virtual times onto the event heap.
func TestRunDynamicValidatesSource(t *testing.T) {
	net, err := BuildNetwork(KindRipple, 40, 10, 0, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	r, err := BuildRouter(RouterSpec{Scheme: SchemeShortestPath, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	_, err = RunDynamic(net, r, invalidSource{}, 10, nil, 0, DynamicOptions{Seed: 1})
	if err == nil {
		t.Fatal("RunDynamic accepted a source with a zero-rate arrival process")
	}
	if !strings.Contains(err.Error(), "payment source") || !strings.Contains(err.Error(), "positive finite") {
		t.Errorf("error %q does not identify the degenerate rate", err)
	}

	// The barbell fixture's stream guards itself the same way.
	sc, err := NamedDynamicScenario("contention", KindTestbed, 20)
	if err != nil {
		t.Fatal(err)
	}
	sc.Duration = 2
	sc.Rate = -3 // survives RunDynamicScenario's own check? no — it must reject too
	if _, err := RunDynamicScenario(sc); err == nil {
		t.Error("RunDynamicScenario accepted a negative arrival rate")
	}
}

// TestRunDynamicRejectsInapplicableSpanOptions pins ROADMAP 3(e):
// options that cannot apply — a negative, NaN or infinite service time
// or window, a deadline or grief setting that is negative, NaN or set
// without hold spans, a control policy tracking a quantile outside
// (0, 1) — are errors from RunDynamic and from RunDynamicScenario,
// never silently read as "off", defaulted, or left to panic mid-run.
func TestRunDynamicRejectsInapplicableSpanOptions(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct {
		name string
		o    DynamicOptions
		want string // "" = accepted
	}{
		{"spans with deadline and grief", DynamicOptions{Service: 0.5, Deadline: 1, GriefFrac: 0.2, GriefHold: 3}, ""},
		{"spans, grief hold zero", DynamicOptions{Service: 0.5, GriefFrac: 0.2}, ""},
		{"no spans, options off", DynamicOptions{}, ""},
		{"negative deadline", DynamicOptions{Service: 0.5, Deadline: -1}, "deadline must be non-negative"},
		{"NaN deadline", DynamicOptions{Service: 0.5, Deadline: nan}, "deadline must be non-negative"},
		{"deadline without spans", DynamicOptions{Deadline: 1}, "deadline 1 needs hold spans"},
		{"negative grief", DynamicOptions{Service: 0.5, GriefFrac: -0.1, GriefHold: 3}, "grief fraction must be non-negative"},
		{"NaN grief", DynamicOptions{Service: 0.5, GriefFrac: nan, GriefHold: 3}, "grief fraction must be non-negative"},
		{"grief without spans", DynamicOptions{GriefFrac: 0.2, GriefHold: 3}, "grief fraction 0.2 needs hold spans"},
		{"negative grief hold", DynamicOptions{Service: 0.5, GriefFrac: 0.2, GriefHold: -3}, "grief hold must be non-negative and finite"},
		{"infinite grief hold", DynamicOptions{Service: 0.5, GriefFrac: 0.2, GriefHold: inf}, "grief hold must be non-negative and finite"},
		{"negative service", DynamicOptions{Service: -1}, "service time must be non-negative and finite"},
		{"NaN service", DynamicOptions{Service: nan}, "service time must be non-negative and finite"},
		{"infinite service", DynamicOptions{Service: inf}, "service time must be non-negative and finite"},
		{"negative window", DynamicOptions{Window: -5}, "window must be non-negative and finite"},
		{"NaN window", DynamicOptions{Window: nan}, "window must be non-negative and finite"},
		{"infinite window", DynamicOptions{Window: inf}, "window must be non-negative and finite"},
		{"window set", DynamicOptions{Window: 0.5}, ""},
		{"mice fraction above one", DynamicOptions{Control: &control.Policy{Threshold: "raw", MiceFraction: 1.5}}, "mice fraction must lie in (0, 1)"},
		{"mice fraction in range", DynamicOptions{Control: &control.Policy{Threshold: "raw", MiceFraction: 0.8}}, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			check := func(where string, err error) {
				t.Helper()
				switch {
				case tc.want == "" && err != nil:
					t.Errorf("%s rejected valid options: %v", where, err)
				case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
					t.Errorf("%s error = %v, want one containing %q", where, err, tc.want)
				}
			}
			net, err := BuildNetwork(KindRipple, 40, 10, 0, 0, 1)
			if err != nil {
				t.Fatal(err)
			}
			r, err := BuildRouter(RouterSpec{Scheme: SchemeShortestPath, Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			gen, err := workloadFor(KindRipple, net.Graph(), 1)
			if err != nil {
				t.Fatal(err)
			}
			src, err := trace.NewStream(gen, trace.Poisson{Rate: 5}, 1)
			if err != nil {
				t.Fatal(err)
			}
			opts := tc.o
			opts.Seed = 1
			_, err = RunDynamic(net, r, src, 2, nil, 0, opts)
			check("RunDynamic", err)

			sc, err := NamedDynamicScenario("steady", KindRipple, 40)
			if err != nil {
				t.Fatal(err)
			}
			sc.Duration, sc.Rate, sc.Schemes = 2, 5, []string{SchemeShortestPath}
			sc.DynamicOptions = opts
			_, err = RunDynamicScenario(sc)
			check("RunDynamicScenario", err)
		})
	}
}

// TestRunDynamicRejectsNonFiniteRunLengthsAndRates pins the run-length
// and rate checks: a NaN horizon used to panic indexing its windows,
// and an infinite horizon, churn or rebalance rate never returned (an
// infinite rate draws zero gaps forever). RunDynamic needs a positive,
// finite horizon; a scenario needs a positive, finite duration and
// arrival rate and non-negative, finite churn and rebalance rates.
func TestRunDynamicRejectsNonFiniteRunLengthsAndRates(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	net, err := BuildNetwork(KindRipple, 40, 10, 0, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	r, err := BuildRouter(RouterSpec{Scheme: SchemeShortestPath, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, horizon := range []float64{0, -1, nan, inf} {
		_, err := RunDynamic(net, r, invalidSource{}, horizon, nil, 0, DynamicOptions{Seed: 1})
		if err == nil || !strings.Contains(err.Error(), "horizon must be positive and finite") {
			t.Errorf("horizon %v: error = %v, want the horizon rejected", horizon, err)
		}
	}

	cases := []struct {
		name string
		mut  func(*DynamicScenario)
		want string // "" = accepted
	}{
		{"churn and rebalance set", func(sc *DynamicScenario) { sc.ChurnRate, sc.RebalanceRate = 0.5, 0.5 }, ""},
		{"zero duration", func(sc *DynamicScenario) { sc.Duration = 0 }, "duration must be positive and finite"},
		{"NaN duration", func(sc *DynamicScenario) { sc.Duration = nan }, "duration must be positive and finite"},
		{"infinite duration", func(sc *DynamicScenario) { sc.Duration = inf }, "duration must be positive and finite"},
		{"negative rate", func(sc *DynamicScenario) { sc.Rate = -3 }, "arrival rate must be positive and finite"},
		{"infinite rate", func(sc *DynamicScenario) { sc.Rate = inf }, "arrival rate must be positive and finite"},
		{"negative churn", func(sc *DynamicScenario) { sc.ChurnRate = -1 }, "churn rate must be non-negative and finite"},
		{"NaN churn", func(sc *DynamicScenario) { sc.ChurnRate = nan }, "churn rate must be non-negative and finite"},
		{"infinite churn", func(sc *DynamicScenario) { sc.ChurnRate = inf }, "churn rate must be non-negative and finite"},
		{"negative rebalance", func(sc *DynamicScenario) { sc.RebalanceRate = -1 }, "rebalance rate must be non-negative and finite"},
		{"NaN rebalance", func(sc *DynamicScenario) { sc.RebalanceRate = nan }, "rebalance rate must be non-negative and finite"},
		{"infinite rebalance", func(sc *DynamicScenario) { sc.RebalanceRate = inf }, "rebalance rate must be non-negative and finite"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sc, err := NamedDynamicScenario("steady", KindRipple, 40)
			if err != nil {
				t.Fatal(err)
			}
			sc.Duration, sc.Rate, sc.Schemes = 2, 5, []string{SchemeShortestPath}
			tc.mut(&sc)
			_, err = RunDynamicScenario(sc)
			switch {
			case tc.want == "" && err != nil:
				t.Errorf("rejected a valid scenario: %v", err)
			case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
				t.Errorf("error = %v, want one containing %q", err, tc.want)
			}
		})
	}
}

// TestCellRejectsNonsense pins the checks a static cell and a dynamic
// scenario share (checkCell) and the static cell's own: every row used
// to run as something other than what it said — unscaled for a NaN or
// negative scale, all mice for a NaN or 200% mice fraction, once for
// negative runs, without retries for negative retries, and on the
// default, negative or NaN testbed capacities for a reversed or
// non-finite range.
func TestCellRejectsNonsense(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	static := []struct {
		name string
		mut  func(*Scenario)
		want string
	}{
		{"NaN scale", func(sc *Scenario) { sc.ScaleFactor = nan }, "scale factor must be non-negative and finite"},
		{"negative scale", func(sc *Scenario) { sc.ScaleFactor = -3 }, "scale factor must be non-negative and finite"},
		{"infinite scale", func(sc *Scenario) { sc.ScaleFactor = inf }, "scale factor must be non-negative and finite"},
		{"NaN mice", func(sc *Scenario) { sc.MiceFraction = nan }, "mice fraction must lie in [0, 1]"},
		{"mice above one", func(sc *Scenario) { sc.MiceFraction = 2 }, "mice fraction must lie in [0, 1]"},
		{"negative mice", func(sc *Scenario) { sc.MiceFraction = -0.1 }, "mice fraction must lie in [0, 1]"},
		{"negative txns", func(sc *Scenario) { sc.Txns = -5 }, "needs at least one payment"},
		{"negative runs", func(sc *Scenario) { sc.Runs = -2 }, "runs must be non-negative"},
		{"negative retries", func(sc *Scenario) { sc.Retries = -1 }, "retries must be non-negative"},
		{"reversed caps", func(sc *Scenario) { sc.TestbedCapLo, sc.TestbedCapHi = 2000, 1000 }, "testbed capacity range"},
		{"negative cap", func(sc *Scenario) { sc.TestbedCapLo, sc.TestbedCapHi = -5, 10 }, "testbed capacity range"},
		{"NaN cap", func(sc *Scenario) { sc.TestbedCapLo = nan }, "testbed capacity range"},
		{"infinite cap", func(sc *Scenario) { sc.TestbedCapHi = inf }, "testbed capacity range"},
	}
	for _, tc := range static {
		t.Run("static/"+tc.name, func(t *testing.T) {
			sc := DefaultScenario(KindTestbed, 20)
			sc.Txns, sc.Runs, sc.Schemes = 10, 1, []string{SchemeShortestPath}
			sc.TestbedCapLo, sc.TestbedCapHi = 1000, 1500
			tc.mut(&sc)
			if _, err := RunScenario(sc); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error = %v, want one containing %q", err, tc.want)
			}
		})
	}
	dynamic := []struct {
		name string
		mut  func(*DynamicScenario)
		want string
	}{
		{"NaN scale", func(sc *DynamicScenario) { sc.ScaleFactor = nan }, "scale factor must be non-negative and finite"},
		{"NaN mice", func(sc *DynamicScenario) { sc.MiceFraction = nan }, "mice fraction must lie in [0, 1]"},
		{"negative retries", func(sc *DynamicScenario) { sc.Retries = -3 }, "retries must be non-negative"},
	}
	for _, tc := range dynamic {
		t.Run("dynamic/"+tc.name, func(t *testing.T) {
			sc, err := NamedDynamicScenario("steady", KindRipple, 40)
			if err != nil {
				t.Fatal(err)
			}
			sc.Duration, sc.Rate, sc.Schemes = 2, 5, []string{SchemeShortestPath}
			tc.mut(&sc)
			if _, err := RunDynamicScenario(sc); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error = %v, want one containing %q", err, tc.want)
			}
		})
	}
}

// TestCellAcceptsEdges: the bounds are inclusive where the figures need
// them — Figure 10's 1e-9 mice fraction, all mice, no scaling, and the
// zero testbed range that selects the default.
func TestCellAcceptsEdges(t *testing.T) {
	for _, mut := range []func(*Scenario){
		func(sc *Scenario) { sc.MiceFraction = 1e-9 },
		func(sc *Scenario) { sc.MiceFraction = 1 },
		func(sc *Scenario) { sc.ScaleFactor = 0 },
		func(sc *Scenario) { sc.TestbedCapLo, sc.TestbedCapHi = 0, 0 },
	} {
		sc := DefaultScenario(KindTestbed, 20)
		sc.Txns, sc.Runs, sc.Schemes = 10, 1, []string{SchemeShortestPath}
		mut(&sc)
		if _, err := RunScenario(sc); err != nil {
			t.Errorf("rejected %+v: %v", sc, err)
		}
	}
}
