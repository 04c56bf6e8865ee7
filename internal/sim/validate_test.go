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
			sc.Service, sc.Window, sc.Deadline, sc.GriefFrac, sc.GriefHold = tc.o.Service, tc.o.Window, tc.o.Deadline, tc.o.GriefFrac, tc.o.GriefHold
			sc.Control = tc.o.Control
			_, err = RunDynamicScenario(sc)
			check("RunDynamicScenario", err)
		})
	}
}
