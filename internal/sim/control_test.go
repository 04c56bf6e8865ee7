package sim

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"

	"repro/internal/control"
	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/telemetry"
	"repro/internal/topo"
)

// TestControlOffMatchesSeedGolden is the tentpole's feature-off pin:
// with no control policy — nil or the explicit zero policy — the
// engine reproduces the seed goldens exactly and applies no control
// events, so the refactor is invisible until opted into.
func TestControlOffMatchesSeedGolden(t *testing.T) {
	for _, kind := range []string{KindRipple, KindLightning} {
		for name, ctl := range map[string]*control.Policy{"nil": nil, "zero": {}} {
			res := goldenDynamicRun(t, kind, DynamicOptions{Workers: 1, Control: ctl})
			if got := stripDelays(res.Aggregate); got != goldenMetrics[kind] {
				t.Errorf("%s/%s: control-off run diverged from seed golden:\n got  %+v\n want %+v",
					kind, name, got, goldenMetrics[kind])
			}
			if res.EventCounts[event.ControlUpdate] != 0 || res.ThresholdUpdates != 0 {
				t.Errorf("%s/%s: control events applied with the plane off", kind, name)
			}
			if res.ControlOn {
				t.Errorf("%s/%s: result advertises a control plane that never ran", kind, name)
			}
			var buf bytes.Buffer
			if err := WriteDynamicJSON(&buf, SchemeFlash, res); err != nil {
				t.Fatal(err)
			}
			for _, field := range []string{"controllers", "controlDecisions", "adaptive"} {
				if strings.Contains(buf.String(), field) {
					t.Errorf("%s/%s: control-off JSON leaks %q", kind, name, field)
				}
			}
		}
	}
}

// rawGolden is the demand-drift Flash cell at test scale as the
// engine computed it before the raw threshold policy ran through the
// general control plane: aggregate and re-classification metrics, each
// window's threshold, metrics and re-classification, and the threshold
// trajectory's totals (testdata/demand_drift_raw.json, wall-clock
// delays zeroed).
type rawGolden struct {
	Aggregate, Adaptive Metrics
	Windows             []struct {
		Threshold         float64
		Metrics, Adaptive Metrics
	}
	ThresholdUpdates int
	FinalThreshold   float64
}

// demandDriftRawFingerprint is that cell's event-log fingerprint, with
// every observe pass and every threshold decision a ControlUpdate.
const demandDriftRawFingerprint = 0x83f4d586fa8f20f7

// TestControlRawMatchesGolden pins the raw threshold policy's behaviour
// to the golden: every metric, window and threshold reproduced exactly,
// the fingerprint pinned, and the event log carrying one ControlUpdate
// per observe pass plus one per applied decision.
func TestControlRawMatchesGolden(t *testing.T) {
	raw, err := os.ReadFile("testdata/demand_drift_raw.json")
	if err != nil {
		t.Fatal(err)
	}
	var want rawGolden
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	sc, err := NamedDynamicScenario("demand-drift", KindRipple, 100)
	if err != nil {
		t.Fatal(err)
	}
	sc.Duration = 20
	sc.Schemes = []string{SchemeFlash}
	sc.Seed = 11
	results, err := RunDynamicScenario(sc)
	if err != nil {
		t.Fatal(err)
	}
	res := results[0].Result

	if got := stripDelays(res.Aggregate); got != want.Aggregate {
		t.Errorf("aggregate:\n got  %+v\n want %+v", got, want.Aggregate)
	}
	if got := stripDelays(res.Adaptive); got != want.Adaptive {
		t.Errorf("re-classified aggregate:\n got  %+v\n want %+v", got, want.Adaptive)
	}
	if len(res.Windows) != len(want.Windows) {
		t.Fatalf("%d windows, want %d", len(res.Windows), len(want.Windows))
	}
	for i, w := range res.Windows {
		g := want.Windows[i]
		if w.Threshold != g.Threshold || stripDelays(w.Metrics) != g.Metrics || stripDelays(w.Adaptive) != g.Adaptive {
			t.Errorf("window %d:\n got  %v %+v %+v\n want %v %+v %+v", i,
				w.Threshold, stripDelays(w.Metrics), stripDelays(w.Adaptive), g.Threshold, g.Metrics, g.Adaptive)
		}
	}
	if res.ThresholdUpdates != want.ThresholdUpdates || res.FinalThreshold != want.FinalThreshold {
		t.Errorf("threshold updates %d (final %v), want %d (final %v)",
			res.ThresholdUpdates, res.FinalThreshold, want.ThresholdUpdates, want.FinalThreshold)
	}
	if res.Fingerprint != demandDriftRawFingerprint {
		t.Errorf("fingerprint %016x, want %016x", res.Fingerprint, uint64(demandDriftRawFingerprint))
	}
	ticks := len(res.Windows) - 1 // one observe pass per window boundary inside the horizon
	if !res.ControlOn || res.ControlDecisions != res.ThresholdUpdates ||
		res.EventCounts[event.ControlUpdate] != ticks+res.ControlDecisions {
		t.Errorf("ControlOn %v, %d decisions, %d ControlUpdate events; want true, %d, %d",
			res.ControlOn, res.ControlDecisions, res.EventCounts[event.ControlUpdate],
			res.ThresholdUpdates, ticks+res.ThresholdUpdates)
	}
}

// TestControlTracksScenarioMiceFraction: a policy that leaves
// MiceFraction at 0 tracks the scenario's, exactly as if the policy had
// named it, and the caller's policy is not written to.
func TestControlTracksScenarioMiceFraction(t *testing.T) {
	run := func(policy *control.Policy) DynamicResult {
		sc, err := NamedDynamicScenario("demand-drift", KindRipple, 100)
		if err != nil {
			t.Fatal(err)
		}
		sc.Duration = 20
		sc.Schemes = []string{SchemeFlash}
		sc.MiceFraction = 0.8
		sc.Control = policy
		results, err := RunDynamicScenario(sc)
		if err != nil {
			t.Fatal(err)
		}
		return results[0].Result
	}
	shared := &control.Policy{Threshold: "raw"}
	implicit := run(shared)
	explicit := run(&control.Policy{Threshold: "raw", MiceFraction: 0.8})
	if shared.MiceFraction != 0 {
		t.Errorf("caller's policy mutated: MiceFraction = %v", shared.MiceFraction)
	}
	if implicit.Fingerprint != explicit.Fingerprint || implicit.FinalThreshold != explicit.FinalThreshold {
		t.Errorf("scenario mice fraction not tracked: %016x final %v vs %016x final %v",
			implicit.Fingerprint, implicit.FinalThreshold, explicit.Fingerprint, explicit.FinalThreshold)
	}
	if ninety := run(&control.Policy{Threshold: "raw", MiceFraction: 0.9}); ninety.FinalThreshold == implicit.FinalThreshold {
		t.Error("0.8 and 0.9 quantiles ended on the same threshold — the comparison is vacuous")
	}
}

// TestControlFullPolicyDeterministicReplay is the controllers-on
// determinism pin: the full policy set at workers=1 replays with
// identical fingerprints and identical CLI/JSON bytes across runs, and
// the run actually exercises the general control path (ControlUpdate
// events, the re-classification view, the per-knob rollup).
func TestControlFullPolicyDeterministicReplay(t *testing.T) {
	run := func() DynamicSchemeResult {
		sc, err := NamedDynamicScenario("demand-drift", KindRipple, 100)
		if err != nil {
			t.Fatal(err)
		}
		sc.Duration = 20
		sc.Schemes = []string{SchemeFlash}
		sc.Seed = 11
		sc.Control = &control.Policy{Threshold: "ewma", PerSender: true, ProbeWidth: true,
			MiceFraction: sc.MiceFraction}
		results, err := RunDynamicScenario(sc)
		if err != nil {
			t.Fatal(err)
		}
		return results[0]
	}
	a, b := run(), run()
	if a.Result.Fingerprint != b.Result.Fingerprint {
		t.Fatalf("fingerprints diverged: %016x vs %016x", a.Result.Fingerprint, b.Result.Fingerprint)
	}
	var tblA, tblB, jsA, jsB bytes.Buffer
	WriteDynamicResult(&tblA, a.Scheme, a.Result, true)
	WriteDynamicResult(&tblB, b.Scheme, b.Result, true)
	if !bytes.Equal(tblA.Bytes(), tblB.Bytes()) {
		t.Errorf("CLI rendering diverged across identical seeds:\n%s\nvs\n%s", tblA.String(), tblB.String())
	}
	if err := WriteDynamicJSON(&jsA, a.Scheme, a.Result); err != nil {
		t.Fatal(err)
	}
	if err := WriteDynamicJSON(&jsB, b.Scheme, b.Result); err != nil {
		t.Fatal(err)
	}
	// meanDelaySeconds is wall-clock (the one non-virtual field, same
	// reason stripDelays exists) — every other byte must match.
	stripWallClock := func(doc []byte) string {
		var kept []string
		for _, line := range strings.Split(string(doc), "\n") {
			if !strings.Contains(line, "meanDelaySeconds") {
				kept = append(kept, line)
			}
		}
		return strings.Join(kept, "\n")
	}
	if stripWallClock(jsA.Bytes()) != stripWallClock(jsB.Bytes()) {
		t.Error("JSON rendering diverged across identical seeds")
	}

	res := a.Result
	if !res.ControlOn {
		t.Fatal("control plane not engaged")
	}
	if res.EventCounts[event.ControlUpdate] == 0 {
		t.Error("no ControlUpdate events in a controlled run")
	}
	if res.ControlDecisions == 0 {
		t.Error("no control decisions applied in a drifting scenario")
	}
	total := 0
	for _, st := range res.Controllers {
		total += st.Decisions
	}
	if total != res.ControlDecisions {
		t.Errorf("per-knob rollup sums to %d, ControlDecisions = %d", total, res.ControlDecisions)
	}
	// The re-classification view accounts for every completed payment,
	// window by window and in aggregate.
	if got := res.Adaptive.MicePayments + res.Adaptive.ElephantPayments; got != res.Aggregate.Payments {
		t.Errorf("aggregate adaptive view classifies %d payments, aggregate has %d", got, res.Aggregate.Payments)
	}
	for i, w := range res.Windows {
		if got := w.Adaptive.MicePayments + w.Adaptive.ElephantPayments; got != w.Metrics.Payments {
			t.Errorf("window %d adaptive view classifies %d payments, window has %d", i, got, w.Metrics.Payments)
		}
	}
	// The rendered table and JSON carry the control surfaces.
	if !strings.Contains(tblA.String(), "control decisions") {
		t.Error("rendered table lacks the control-decision footer")
	}
	if !strings.Contains(tblA.String(), "mice ok/tot") {
		t.Error("rendered table lacks the re-classification columns")
	}
	for _, field := range []string{`"controllers"`, `"controlDecisions"`, `"adaptive"`} {
		if !strings.Contains(jsA.String(), field) {
			t.Errorf("controlled JSON lacks %q", field)
		}
	}
}

// TestControlEWMAFewerSwapsThanRaw is the PR's acceptance criterion:
// on the demand-drift scenario the EWMA-smoothed threshold policy
// makes strictly fewer threshold swaps than the raw per-window
// estimate — the tail-noise wobble is absorbed — at equal-or-better
// post-shift elephant success, both runs classified against the same
// fixed post-shift threshold.
func TestControlEWMAFewerSwapsThanRaw(t *testing.T) {
	sc, err := NamedDynamicScenario("demand-drift", KindRipple, 150)
	if err != nil {
		t.Fatal(err)
	}
	_, preThreshold := demandDriftCell(t, nil, 0)
	postThreshold := preThreshold * sc.DemandShiftFactor

	raw, _ := demandDriftCell(t, &control.Policy{Threshold: "raw"}, postThreshold)
	ewma, _ := demandDriftCell(t, &control.Policy{Threshold: "ewma"}, postThreshold)

	if raw.ThresholdUpdates == 0 {
		t.Fatal("raw policy made no swaps — the comparison is vacuous")
	}
	if ewma.ThresholdUpdates == 0 {
		t.Fatal("ewma policy never adapted")
	}
	if ewma.ThresholdUpdates >= raw.ThresholdUpdates {
		t.Errorf("ewma made %d swaps, want strictly fewer than raw's %d",
			ewma.ThresholdUpdates, raw.ThresholdUpdates)
	}

	shiftAt := 40 * sc.DemandShiftFrac
	postShift := func(res DynamicResult) (int, int) {
		elephants, successes := 0, 0
		for _, w := range res.Windows {
			if w.Start < shiftAt {
				continue
			}
			elephants += w.Metrics.ElephantPayments
			successes += w.Metrics.ElephantSuccesses
		}
		return elephants, successes
	}
	rp, rs := postShift(raw)
	ep, es := postShift(ewma)
	if rp == 0 || ep == 0 {
		t.Fatalf("no post-shift elephants classified (raw %d, ewma %d)", rp, ep)
	}
	rawRatio := float64(rs) / float64(rp)
	ewmaRatio := float64(es) / float64(ep)
	t.Logf("swaps: raw %d, ewma %d; post-shift elephant success: raw %d/%d (%.1f%%), ewma %d/%d (%.1f%%)",
		raw.ThresholdUpdates, ewma.ThresholdUpdates, rs, rp, 100*rawRatio, es, ep, 100*ewmaRatio)
	if ewmaRatio < rawRatio {
		t.Errorf("ewma post-shift elephant success ratio %.3f below raw's %.3f", ewmaRatio, rawRatio)
	}
	// And the smoothing must still track the 4× collapse.
	if ewma.FinalThreshold >= preThreshold {
		t.Errorf("ewma final threshold %.4g did not drop below the pre-shift calibration %.4g",
			ewma.FinalThreshold, preThreshold)
	}
}

// tickController is a scripted Controller: it emits a fixed decision
// list on its first Observe pass only — the seam for driving every
// knob's application path without a real policy.
type tickController struct {
	decisions []control.Decision
	passes    int
}

func (c *tickController) Name() string { return "scripted" }
func (c *tickController) Observe(w control.Metrics) []control.Decision {
	c.passes++
	if c.passes == 1 {
		return c.decisions
	}
	return nil
}

// TestScriptedControlAppliesEveryKnob drives the general control path
// with a scripted controller touching all three knobs, and checks the
// full application chain: router state, result rollups, event log, and
// telemetry counters.
func TestScriptedControlAppliesEveryKnob(t *testing.T) {
	g := topo.New(3)
	g.MustAddChannel(0, 1)
	g.MustAddChannel(0, 2)
	net := pcnNew(t, g, 1e6)
	fl := core.New(core.DefaultConfig(100))

	script := &tickController{decisions: []control.Decision{
		{Knob: control.KnobThreshold, Value: 42},
		{Knob: control.KnobSenderThreshold, Sender: 0, Value: 5},
		{Knob: control.KnobProbeWidth, Value: 3},
		{Knob: control.Knob(control.NumKnobs), Value: 2}, // unknown: must be skipped
	}}
	reg := telemetry.NewRegistry()
	RegisterRouterMetrics(reg, SchemeFlash, fl)
	src := newScaledSource(10, 1, 3, 5, 7, 9)
	res, err := RunDynamic(net, fl, src, 10, nil, 100, DynamicOptions{
		Workers:     1,
		Window:      2,
		Registry:    reg,
		controlHook: []control.Controller{script},
	})
	if err != nil {
		t.Fatal(err)
	}

	// Router state reflects the applied decisions.
	if got := fl.Threshold(); got != 42 {
		t.Errorf("global threshold = %g, want 42", got)
	}
	if got := fl.ThresholdFor(0); got != 5 {
		t.Errorf("ThresholdFor(0) = %g, want the per-sender 5", got)
	}
	if got := fl.ThresholdFor(1); got != 42 {
		t.Errorf("ThresholdFor(1) = %g, want the global 42", got)
	}
	if got := fl.ProbeWorkers(); got != 3 {
		t.Errorf("probe width = %d, want 3", got)
	}
	st := fl.Stats()
	if st.SenderThresholdUpdates != 1 || st.ProbeWidthUpdates != 1 || st.SenderThresholds != 1 {
		t.Errorf("router stats %+v, want 1 sender update, 1 width update, 1 tracked sender", st)
	}

	// Result rollups: 3 applied decisions (the unknown knob skipped),
	// one per knob.
	if !res.ControlOn {
		t.Fatal("ControlOn false on a hook-driven run")
	}
	if res.ControlDecisions != 3 {
		t.Errorf("ControlDecisions = %d, want 3", res.ControlDecisions)
	}
	if res.ThresholdUpdates != 1 {
		t.Errorf("ThresholdUpdates = %d, want 1", res.ThresholdUpdates)
	}
	want := map[string]float64{"threshold": 42, "sender-threshold": 5, "probe-width": 3}
	if len(res.Controllers) != len(want) {
		t.Fatalf("per-knob rollup %+v, want %d knobs", res.Controllers, len(want))
	}
	for _, stt := range res.Controllers {
		if stt.Decisions != 1 || stt.Last != want[stt.Knob] {
			t.Errorf("knob %s: %d decisions last %g, want 1 decision last %g",
				stt.Knob, stt.Decisions, stt.Last, want[stt.Knob])
		}
	}
	// Event log: one bare tick per cadence window (2s over a 10s
	// horizon: ticks at 2,4,6,8) plus the 3 decision events.
	if got := res.EventCounts[event.ControlUpdate]; got != 4+3 {
		t.Errorf("ControlUpdate events = %d, want 7 (4 bare ticks + 3 decisions)", got)
	}

	// Telemetry: per-knob decision counters and last-value gauges.
	var prom bytes.Buffer
	if err := reg.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	for knob := range want {
		if !strings.Contains(prom.String(), `sim_control_decisions_total{knob="`+knob+`"`) {
			t.Errorf("registry lacks decision counter for %s:\n%s", knob, prom.String())
		}
	}
	if !strings.Contains(prom.String(), "flash_probe_workers") {
		t.Errorf("registry lacks the probe-width gauge")
	}
}

// TestControlUpdateChurnRejected: ControlUpdate is engine-internal and
// must stay out of churn schedules.
func TestControlUpdateChurnRejected(t *testing.T) {
	g := topo.New(3)
	g.MustAddChannel(0, 1)
	g.MustAddChannel(0, 2)
	net := pcnNew(t, g, 1e6)
	src := newScaledSource(10, 1)
	churn := []event.Event{{Time: 2, Kind: event.ControlUpdate, Amount: 5}}
	if _, err := RunDynamic(net, baselineShortestPath(t), src, 10, churn, 1e9, DynamicOptions{Workers: 1}); err == nil {
		t.Error("control-update event in churn schedule accepted")
	}
}

// TestControlRequiresFlash: control policies tune Flash's knobs; on a
// knob-less router the plane is simply inert rather than an error.
func TestControlRequiresFlash(t *testing.T) {
	g := topo.New(3)
	g.MustAddChannel(0, 1)
	g.MustAddChannel(0, 2)
	net := pcnNew(t, g, 1e6)
	src := newScaledSource(10, 1, 3)
	res, err := RunDynamic(net, baselineShortestPath(t), src, 10, nil, 1e9, DynamicOptions{
		Workers: 1,
		Control: &control.Policy{Threshold: "ewma", PerSender: true, ProbeWidth: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.ControlOn || res.EventCounts[event.ControlUpdate] != 0 {
		t.Errorf("control plane engaged on a knob-less router: ControlOn=%v events=%d",
			res.ControlOn, res.EventCounts[event.ControlUpdate])
	}
}

// TestControlBadPolicyRejected: an unknown threshold selector surfaces
// as a run error, not a silent no-op.
func TestControlBadPolicyRejected(t *testing.T) {
	g := topo.New(3)
	g.MustAddChannel(0, 1)
	g.MustAddChannel(0, 2)
	net := pcnNew(t, g, 1e6)
	fl := core.New(core.DefaultConfig(100))
	src := newScaledSource(10, 1)
	if _, err := RunDynamic(net, fl, src, 10, nil, 100, DynamicOptions{
		Workers: 1,
		Control: &control.Policy{Threshold: "bogus"},
	}); err == nil {
		t.Error("unknown threshold policy accepted")
	}
}
