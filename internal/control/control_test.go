package control

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/stats"
	"repro/internal/topo"
)

func TestKnobString(t *testing.T) {
	cases := map[Knob]string{
		KnobThreshold:       "threshold",
		KnobSenderThreshold: "sender-threshold",
		KnobProbeWidth:      "probe-width",
		Knob(0):             "knob(0)",
		Knob(99):            "knob(99)",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("Knob(%d).String() = %q, want %q", k, got, want)
		}
	}
	if NumKnobs != 4 {
		t.Errorf("NumKnobs = %d, want 4 (codes 1..3 plus the bare-tick 0)", NumKnobs)
	}
}

// scriptedController returns a fixed decision list and records the
// windows it observed — a pure test double.
type scriptedController struct {
	decide   []Decision
	observed []Metrics
	arrivals int
}

func (c *scriptedController) Observe(w Metrics) []Decision {
	c.observed = append(c.observed, w)
	return c.decide
}
func (c *scriptedController) ObserveArrival(topo.NodeID, float64) { c.arrivals++ }

// plainController has no ArrivalObserver implementation.
type plainController struct{ scripted scriptedController }

func (c *plainController) Observe(w Metrics) []Decision { return c.scripted.Observe(w) }

func TestPlaneFanOutAndOrder(t *testing.T) {
	a := &scriptedController{decide: []Decision{{Knob: KnobThreshold, Value: 1}}}
	b := &plainController{}
	c := &scriptedController{decide: []Decision{
		{Knob: KnobProbeWidth, Value: 2},
		{Knob: KnobSenderThreshold, Sender: 5, Value: 3},
	}}
	p := NewPlane(a, b, c)
	if got := len(p.controllers); got != 3 {
		t.Fatalf("plane has %d controllers, want 3", got)
	}

	// Arrivals reach only the ArrivalObservers (a and c, not b).
	p.ObserveArrival(7, 42.0)
	p.ObserveArrival(8, 1.0)
	if a.arrivals != 2 || c.arrivals != 2 {
		t.Errorf("arrival fan-out: a=%d c=%d, want 2 each", a.arrivals, c.arrivals)
	}

	// Observe concatenates in plane order.
	ds := p.Observe(Metrics{Elephants: 3})
	want := []Decision{
		{Knob: KnobThreshold, Value: 1},
		{Knob: KnobProbeWidth, Value: 2},
		{Knob: KnobSenderThreshold, Sender: 5, Value: 3},
	}
	if len(ds) != len(want) {
		t.Fatalf("Observe returned %d decisions, want %d", len(ds), len(want))
	}
	for i := range want {
		if ds[i] != want[i] {
			t.Errorf("decision[%d] = %+v, want %+v", i, ds[i], want[i])
		}
	}
	if len(a.observed) != 1 || a.observed[0].Elephants != 3 {
		t.Errorf("controller a saw %+v, want one window with Elephants 3", a.observed)
	}
}

func TestRawThresholdMatchesInlineRecalibration(t *testing.T) {
	// The raw policy must replicate PR 5's inline logic exactly:
	// identical estimator stream in, identical swap decisions out.
	c := NewRawThreshold(0.9)
	ref := stats.NewQuantileEstimator(0.9)
	rng := stats.NewRNG(1, 0xC0)
	thr := 100.0
	for win := 0; win < 10; win++ {
		n := 10 + int(rng.Int63n(40)) // some windows under the gate
		for i := 0; i < n; i++ {
			amt := rng.Float64() * 200
			c.ObserveArrival(topo.NodeID(i), amt)
			ref.Add(amt)
		}
		ds := c.Observe(Metrics{Threshold: thr})

		// Reference: the engine's former inline body.
		var want []Decision
		if ref.Count() >= minSamples {
			q := ref.Quantile()
			ref.Reset()
			if q != thr {
				want = []Decision{{Knob: KnobThreshold, Value: q}}
			}
		}
		if len(ds) != len(want) {
			t.Fatalf("window %d: got %d decisions, want %d", win, len(ds), len(want))
		}
		if len(ds) == 1 {
			if ds[0] != want[0] {
				t.Fatalf("window %d: decision %+v, want %+v", win, ds[0], want[0])
			}
			thr = ds[0].Value
		}
	}
}

func TestRawThresholdNoSwapWhenEqual(t *testing.T) {
	c := NewRawThreshold(0.5)
	for i := 0; i < 30; i++ {
		c.ObserveArrival(0, 10)
	}
	ds := c.Observe(Metrics{Threshold: 10})
	if len(ds) != 0 {
		t.Fatalf("estimate equal to live threshold still swapped: %+v", ds)
	}
}

func TestSmoothedThresholdGates(t *testing.T) {
	feed := func(c *SmoothedThreshold, center float64, n int) {
		// A fixed, slightly spread stream around center so the P²
		// markers carry a finite density (StdErr is usable).
		for i := 0; i < n; i++ {
			c.ObserveArrival(0, center*(0.9+0.01*float64(i%21)))
		}
	}

	t.Run("min samples hold", func(t *testing.T) {
		c := NewSmoothedThreshold(0.9)
		feed(c, 100, minSamples-1)
		if ds := c.Observe(Metrics{Threshold: 1}); len(ds) != 0 {
			t.Fatalf("under-gated window swapped: %+v", ds)
		}
		feed(c, 100, minSamples) // estimator was NOT reset by the held window
		if ds := c.Observe(Metrics{Threshold: 1}); len(ds) != 1 {
			t.Fatalf("well-fed window did not swap: %+v", ds)
		}
	})

	t.Run("dead band hold", func(t *testing.T) {
		// A twin fed the same stream reports the smoothed estimate; a
		// live threshold within band of it, but outside the confidence
		// gate, must hold.
		twin, c := NewSmoothedThreshold(0.9), NewSmoothedThreshold(0.9)
		feed(twin, 100, 100)
		feed(c, 100, 100)
		se := twin.est.StdErr()
		ds := twin.Observe(Metrics{Threshold: 1})
		if len(ds) != 1 {
			t.Fatalf("twin did not report its estimate: %+v", ds)
		}
		live := ds[0].Value * (1 + band/2)
		if move := live - ds[0].Value; !(move > confidence*se) {
			t.Fatalf("move %.4g inside the confidence gate %.4g: the band is not what holds", move, confidence*se)
		}
		if ds := c.Observe(Metrics{Threshold: live}); len(ds) != 0 {
			t.Fatalf("move inside dead-band swapped: %+v", ds)
		}
	})

	t.Run("confident move swaps", func(t *testing.T) {
		c := NewSmoothedThreshold(0.9)
		feed(c, 100, 200)
		ds := c.Observe(Metrics{Threshold: 10})
		if len(ds) != 1 || ds[0].Knob != KnobThreshold {
			t.Fatalf("10x move did not swap: %+v", ds)
		}
		if ds[0].Value < 80 || ds[0].Value > 120 {
			t.Errorf("swap value %.4g, want ≈ the ~100 stream quantile", ds[0].Value)
		}
	})

	t.Run("snap re-seeds on regime shift", func(t *testing.T) {
		c := NewSmoothedThreshold(0.9)
		feed(c, 100, 200)
		ds := c.Observe(Metrics{Threshold: 1})
		if len(ds) != 1 {
			t.Fatalf("seed window did not swap: %+v", ds)
		}
		seeded := ds[0].Value

		// 4x regime jump, far past snap: without the reset, alpha would
		// land the EWMA half-way; with it, the new estimate is re-seeded.
		feed(c, 400, 200)
		ds = c.Observe(Metrics{Threshold: seeded})
		if len(ds) != 1 {
			t.Fatalf("post-shift window did not swap: %+v", ds)
		}
		if ds[0].Value < 3*seeded {
			t.Errorf("post-shift threshold %.4g lagging (seeded %.4g): snap reset did not fire", ds[0].Value, seeded)
		}
	})
}

func TestPerSenderThreshold(t *testing.T) {
	c := NewPerSenderThreshold(0.9)
	// Sender 5 streams ~1000-sized payments, sender 3 ~10-sized;
	// one-arrival filler senders take the rest of the cap, so sender 9
	// arrives beyond it and must be ignored.
	for i := 0; i < 50; i++ {
		c.ObserveArrival(5, 1000*(0.95+0.005*float64(i%11)))
		c.ObserveArrival(3, 10*(0.95+0.005*float64(i%11)))
	}
	for s := topo.NodeID(100); len(c.order) < maxSenders; s++ {
		c.ObserveArrival(s, 1)
	}
	for i := 0; i < 50; i++ {
		c.ObserveArrival(9, 500)
	}
	if got := len(c.order); got != maxSenders {
		t.Fatalf("tracking %d senders, want the %d cap", got, maxSenders)
	}
	if _, ok := c.senders[9]; ok {
		t.Fatal("sender 9 tracked beyond the cap")
	}
	ds := c.Observe(Metrics{Threshold: 100})
	if len(ds) != 2 {
		t.Fatalf("got %d decisions, want 2 (fillers are under the gate): %+v", len(ds), ds)
	}
	// First-seen order: sender 5 observed before sender 3.
	if ds[0].Sender != 5 || ds[1].Sender != 3 {
		t.Fatalf("decision order %+v, want sender 5 then sender 3", ds)
	}
	if ds[0].Knob != KnobSenderThreshold || ds[1].Knob != KnobSenderThreshold {
		t.Fatalf("wrong knob in %+v", ds)
	}
	if ds[0].Value < 500 || ds[1].Value > 50 {
		t.Errorf("override values %.4g/%.4g, want ≈1000 and ≈10 scale", ds[0].Value, ds[1].Value)
	}

	// Steady stream: the next window's estimates stay inside the
	// dead-band around the applied overrides, so no new decisions.
	for i := 0; i < 50; i++ {
		c.ObserveArrival(5, 1000*(0.95+0.005*float64(i%11)))
		c.ObserveArrival(3, 10*(0.95+0.005*float64(i%11)))
	}
	if ds := c.Observe(Metrics{Threshold: 100}); len(ds) != 0 {
		t.Fatalf("steady stream re-emitted: %+v", ds)
	}
}

func TestPerSenderThresholdDeterministicSequence(t *testing.T) {
	run := func() []Decision {
		c := NewPerSenderThreshold(0.9)
		rng := stats.NewRNG(7, 0xD1)
		var all []Decision
		for win := 0; win < 5; win++ {
			for i := 0; i < 200; i++ {
				s := topo.NodeID(rng.Int63n(20))
				c.ObserveArrival(s, rng.Float64()*float64(100*(win+1)))
			}
			all = append(all, c.Observe(Metrics{Threshold: 50})...)
		}
		return all
	}
	a, b := run(), run()
	if len(a) == 0 {
		t.Fatal("drifting multi-sender stream produced no decisions")
	}
	if len(a) != len(b) {
		t.Fatalf("replay decision counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("replay decision %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestProbeWidth(t *testing.T) {
	c := NewProbeWidth()

	base := Metrics{Elephants: 10, ElephantSuccesses: 10, ProbeWidth: 2}

	t.Run("widen on underfill", func(t *testing.T) {
		m := base
		m.ElephantProbeOps = 50 // 5 ops/elephant > width 2
		m.ElephantPathsUsed = 40
		ds := c.Observe(m)
		if len(ds) != 1 || ds[0].Knob != KnobProbeWidth || ds[0].Value != 4 {
			t.Fatalf("want widen 2→4, got %+v", ds)
		}
	})

	t.Run("narrow on unused speculation", func(t *testing.T) {
		m := base
		m.ProbeWidth = 8
		m.ElephantProbeOps = 80  // 8 ops/elephant = width: no widen signal
		m.ElephantPathsUsed = 10 // 1 path/delivery < 8/2: speculation unused
		ds := c.Observe(m)
		if len(ds) != 1 || ds[0].Value != 4 {
			t.Fatalf("want narrow 8→4, got %+v", ds)
		}
	})

	t.Run("dead zone holds", func(t *testing.T) {
		m := base
		m.ProbeWidth = 4
		m.ElephantProbeOps = 40  // exactly width ops/elephant
		m.ElephantPathsUsed = 30 // 3 paths/delivery ∈ [2, 4]
		if ds := c.Observe(m); len(ds) != 0 {
			t.Fatalf("dead zone emitted: %+v", ds)
		}
	})

	t.Run("gate on few elephants", func(t *testing.T) {
		m := base
		m.Elephants = 4
		m.ElephantProbeOps = 40
		if ds := c.Observe(m); len(ds) != 0 {
			t.Fatalf("under-gated window emitted: %+v", ds)
		}
	})

	t.Run("clamp at max", func(t *testing.T) {
		m := base
		m.ProbeWidth = 8
		m.ElephantProbeOps = 200
		if ds := c.Observe(m); len(ds) != 0 {
			t.Fatalf("widen at MaxWidth must clamp to no-op, got %+v", ds)
		}
	})
}

func TestPolicyControllersOrder(t *testing.T) {
	p := Policy{Threshold: "ewma", PerSender: true, ProbeWidth: true}
	cs, err := p.Controllers()
	if err != nil {
		t.Fatal(err)
	}
	var types []string
	for _, c := range cs {
		types = append(types, fmt.Sprintf("%T", c))
	}
	want := "*control.SmoothedThreshold,*control.PerSenderThreshold,*control.ProbeWidth"
	if got := strings.Join(types, ","); got != want {
		t.Fatalf("plane order %q, want %q", got, want)
	}

	if cs, err := (Policy{Threshold: "raw"}).Controllers(); err != nil || len(cs) != 1 {
		t.Fatalf("raw policy: %v, %v", cs, err)
	} else if _, ok := cs[0].(*RawThreshold); !ok {
		t.Fatalf("raw policy built %T, want *RawThreshold", cs[0])
	}
	if _, err := (Policy{Threshold: "bogus"}).Controllers(); err == nil {
		t.Fatal("unknown threshold selector accepted")
	}
	if cs, err := (Policy{}).Controllers(); err != nil || len(cs) != 0 {
		t.Fatalf("inert policy built controllers: %v, %v", cs, err)
	}
}

// TestPolicyMiceFractionRange: a tracked quantile outside (0, 1) is an
// error from Controllers, not a panic inside the estimator; 0 means 0.9.
func TestPolicyMiceFractionRange(t *testing.T) {
	for _, frac := range []float64{1, 1.5, -0.2, math.NaN(), math.Inf(1)} {
		for _, p := range []Policy{
			{Threshold: "raw", MiceFraction: frac},
			{Threshold: "ewma", MiceFraction: frac},
			{PerSender: true, MiceFraction: frac},
		} {
			if _, err := p.Controllers(); err == nil || !strings.Contains(err.Error(), "mice fraction") {
				t.Errorf("%+v: error %v, want a mice-fraction error", p, err)
			}
		}
	}
	for _, frac := range []float64{0, 0.5, 0.9} {
		if cs, err := (Policy{Threshold: "raw", PerSender: true, MiceFraction: frac}).Controllers(); err != nil || len(cs) != 2 {
			t.Errorf("mice fraction %v: %v, %v", frac, cs, err)
		}
	}
}

func TestParsePolicy(t *testing.T) {
	for _, tc := range []struct {
		spec string
		want Policy
	}{
		{"", Policy{}},
		{"off", Policy{}},
		{"raw", Policy{Threshold: "raw"}},
		{"ewma", Policy{Threshold: "ewma"}},
		{"ewma,sender,width", Policy{Threshold: "ewma", PerSender: true, ProbeWidth: true}},
		{" sender , width ", Policy{PerSender: true, ProbeWidth: true}},
	} {
		got, err := ParsePolicy(tc.spec)
		if err != nil {
			t.Errorf("ParsePolicy(%q): %v", tc.spec, err)
			continue
		}
		if got != tc.want {
			t.Errorf("ParsePolicy(%q) = %+v, want %+v", tc.spec, got, tc.want)
		}
		// Spec round-trips the canonical form.
		if rt, err := ParsePolicy(got.Spec()); err != nil || rt != got {
			t.Errorf("round-trip of %q via Spec %q: %+v, %v", tc.spec, got.Spec(), rt, err)
		}
	}
	for _, bad := range []string{"raw,ewma", "nope", "raw,,width", "ewma,raw"} {
		if _, err := ParsePolicy(bad); err == nil {
			t.Errorf("ParsePolicy(%q) accepted", bad)
		}
	}
	if (Policy{}).Enabled() {
		t.Error("zero policy reports Enabled")
	}
	if !(Policy{PerSender: true}).Enabled() {
		t.Error("sender-only policy reports disabled")
	}
}
