package sim

import (
	"math"
	"strings"
	"testing"

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
	r, err := NewRouter(SchemeShortestPath, 0, 0, 0, false, 1)
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
// deadline and grief settings that cannot apply — negative, NaN, or
// set without hold spans — are errors from RunDynamic and from
// RunDynamicScenario, never silently read as "off".
func TestRunDynamicRejectsInapplicableSpanOptions(t *testing.T) {
	nan := math.NaN()
	cases := []struct {
		name                               string
		service, deadline, grief, griefHld float64
		want                               string // "" = accepted
	}{
		{"spans with deadline and grief", 0.5, 1, 0.2, 3, ""},
		{"spans, grief hold zero", 0.5, 0, 0.2, 0, ""},
		{"no spans, options off", 0, 0, 0, 0, ""},
		{"negative deadline", 0.5, -1, 0, 0, "deadline must be non-negative"},
		{"NaN deadline", 0.5, nan, 0, 0, "deadline must be non-negative"},
		{"deadline without spans", 0, 1, 0, 0, "deadline 1 needs hold spans"},
		{"negative grief", 0.5, 0, -0.1, 3, "grief fraction must be non-negative"},
		{"NaN grief", 0.5, 0, nan, 3, "grief fraction must be non-negative"},
		{"grief without spans", 0, 0, 0.2, 3, "grief fraction 0.2 needs hold spans"},
		{"negative grief hold", 0.5, 0, 0.2, -3, "grief hold must be non-negative and finite"},
		{"infinite grief hold", 0.5, 0, 0.2, math.Inf(1), "grief hold must be non-negative and finite"},
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
			_, err = RunDynamic(net, r, src, 2, nil, 0, DynamicOptions{
				Seed: 1, Service: tc.service, Deadline: tc.deadline, GriefFrac: tc.grief, GriefHold: tc.griefHld,
			})
			check("RunDynamic", err)

			sc, err := NamedDynamicScenario("steady", KindRipple, 40)
			if err != nil {
				t.Fatal(err)
			}
			sc.Duration, sc.Rate, sc.Schemes = 2, 5, []string{SchemeShortestPath}
			sc.Service, sc.Deadline, sc.GriefFrac, sc.GriefHold = tc.service, tc.deadline, tc.grief, tc.griefHld
			_, err = RunDynamicScenario(sc)
			check("RunDynamicScenario", err)
		})
	}
}
