package sim

import (
	"bytes"
	"io"
	"testing"

	"repro/internal/core"
	"repro/internal/telemetry"
)

// countSink counts emitted flow records by outcome.
type countSink struct {
	total, delivered, spanAborts int
}

func (c *countSink) Emit(r *telemetry.FlowRecord) {
	c.total++
	switch r.Outcome {
	case telemetry.OutcomeDelivered:
		c.delivered++
	case telemetry.OutcomeSpanAbort:
		c.spanAborts++
	}
}

// TestStaticTelemetryObserverOnly is the observer-only guarantee on the
// static replay: attaching a flow sink leaves the seed golden metrics
// bit-identical, while the sink sees every payment exactly once.
func TestStaticTelemetryObserverOnly(t *testing.T) {
	for kind, want := range goldenMetrics {
		sink := &countSink{}
		got := stripDelays(goldenRun(t, kind, 0, sink))
		if got != want {
			t.Errorf("%s: metrics diverged with sink attached:\n got  %+v\n want %+v", kind, got, want)
		}
		if n := sink.total; n != want.Payments {
			t.Errorf("%s: sink saw %d records, want %d", kind, n, want.Payments)
		}
		if n := sink.delivered; n != want.Successes {
			t.Errorf("%s: sink saw %d delivered, want %d", kind, n, want.Successes)
		}
	}
}

// TestDynamicTelemetryObserverOnly is the PR's hard constraint on the
// dynamic engine: enabling every sink — flow records, a flow log, and
// the full metrics registry — leaves the event-log fingerprint, the
// rendered result table, and every metric byte-identical to the bare
// run.
func TestDynamicTelemetryObserverOnly(t *testing.T) {
	render := func(r SchemeResult) string {
		var buf bytes.Buffer
		WriteDynamicResult(&buf, r.Scheme, r.Runs[0], true)
		return buf.String()
	}

	bare := churnScenario(t, 1)
	bareRes, err := Run(bare)
	if err != nil {
		t.Fatal(err)
	}

	observed := churnScenario(t, 1)
	count := &countSink{}
	log := telemetry.NewFlowLog(128)
	jsonl := telemetry.NewJSONLSink(io.Discard)
	defer jsonl.Close()
	observed.FlowSink = telemetry.MultiSink{jsonl, log, count}
	observed.Registry = telemetry.NewRegistry()
	obsRes, err := Run(observed)
	if err != nil {
		t.Fatal(err)
	}

	a, b := bareRes[0].Runs[0], obsRes[0].Runs[0]
	if a.Fingerprint != b.Fingerprint {
		t.Fatalf("fingerprint changed with telemetry on: %016x vs %016x", a.Fingerprint, b.Fingerprint)
	}
	if stripDelays(a.Aggregate) != stripDelays(b.Aggregate) {
		t.Errorf("aggregate changed with telemetry on:\n bare %+v\n obs  %+v", a.Aggregate, b.Aggregate)
	}
	if got, want := render(obsRes[0]), render(bareRes[0]); got != want {
		t.Errorf("rendered table changed with telemetry on:\n%s\nvs\n%s", got, want)
	}

	// The observer must agree with the engine's own accounting.
	if n := count.total; n != b.Aggregate.Payments {
		t.Errorf("sink saw %d records, want %d", n, b.Aggregate.Payments)
	}
	if n := count.delivered; n != b.Aggregate.Successes {
		t.Errorf("sink saw %d delivered, want %d", n, b.Aggregate.Successes)
	}
	if n := count.spanAborts; n != b.SpanAborts {
		t.Errorf("sink saw %d span-aborts, want %d", n, b.SpanAborts)
	}
	var promA bytes.Buffer
	if err := observed.Registry.WritePrometheus(&promA); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(promA.Bytes(), []byte("sim_payments_total")) {
		t.Error("registry missing sim_payments_total after observed run")
	}
}

// TestWriteDynamicJSONDeterministic pins the flashsim -json contract:
// the JSON document is a pure function of the result, so two renders of
// the same deterministic run are byte-identical and carry the
// fingerprint as a 16-digit hex string.
func TestWriteDynamicJSONDeterministic(t *testing.T) {
	res, err := Run(churnScenario(t, 1))
	if err != nil {
		t.Fatal(err)
	}
	render := func() []byte {
		var buf bytes.Buffer
		if err := WriteDynamicJSON(&buf, res[0].Scheme, res[0].Runs[0]); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := render(), render()
	if !bytes.Equal(a, b) {
		t.Error("WriteDynamicJSON not deterministic for the same result")
	}
	if !bytes.Contains(a, []byte(`"fingerprint": "`)) {
		t.Errorf("JSON document missing fingerprint field:\n%s", a)
	}
	if !bytes.Contains(a, []byte(`"scheme": "Flash"`)) {
		t.Errorf("JSON document missing scheme field:\n%s", a)
	}
}

// TestFeeProgramNeverFallsBack replays a 300-node Ripple cell under Flash
// and requires every elephant split to come from the fee program: a
// solver failure falls back to sequential filling, which only
// core.Stats.FeeProgramFallbacks and its gauge would show.
func TestFeeProgramNeverFallsBack(t *testing.T) {
	sc := DefaultScenario(KindRipple, 300)
	sc.Txns = 1000
	c, err := sc.newCell(sc.Seed)
	if err != nil {
		t.Fatal(err)
	}
	net := c.net
	payments, threshold := c.payments, c.threshold
	r, err := BuildRouter(RouterSpec{Scheme: SchemeFlash, Threshold: threshold, Seed: sc.Seed})
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	RegisterRouterMetrics(reg, SchemeFlash, r)
	if _, err := Replay(net, r, payments, threshold); err != nil {
		t.Fatal(err)
	}
	if st := r.(*core.Flash).Stats(); st.Elephants < 50 || st.FeeProgramFallbacks != 0 {
		t.Fatalf("%d elephants, %d fee-program fallbacks: want at least 50 and none", st.Elephants, st.FeeProgramFallbacks)
	}
	var prom bytes.Buffer
	if err := reg.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	if want := `flash_fee_program_fallbacks_total{scheme="Flash"} 0`; !bytes.Contains(prom.Bytes(), []byte(want)) {
		t.Errorf("registry lacks %s:\n%s", want, prom.String())
	}
}
