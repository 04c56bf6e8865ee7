package sim

import (
	"bytes"
	"io"
	"strconv"
	"strings"
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
	publish := RegisterRouterMetrics(reg, SchemeFlash, r)
	if _, err := Replay(net, r, payments, threshold); err != nil {
		t.Fatal(err)
	}
	publish()
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

// TestLiveScrapeDuringRun scrapes a registry in a loop on a second
// goroutine while a Flash RunDynamic with churn, hold spans and a retry
// runs against it — go test -race is what checks that a scrape reads
// only the registry's own instruments, never the router or the network.
// After the run, every flash_* and pcn_holds_* series must equal the
// router's Stats and the network's hold counters.
func TestLiveScrapeDuringRun(t *testing.T) {
	sc := churnScenario(t, 1)
	sc.Service, sc.Retries = 1, 1
	c, err := sc.newCell(sc.Seed)
	if err != nil {
		t.Fatal(err)
	}
	net := c.net.Clone()
	r, err := BuildRouter(RouterSpec{Scheme: SchemeFlash, Threshold: c.threshold, Seed: c.seed})
	if err != nil {
		t.Fatal(err)
	}
	src, err := c.source()
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	opts := sc.DynamicOptions
	opts.Seed, opts.Registry = c.seed, reg

	started, stop, scrapes := make(chan struct{}), make(chan struct{}), make(chan int)
	go func() {
		n := 0
		for ; ; n++ {
			if err := reg.WritePrometheus(io.Discard); err != nil {
				t.Error(err)
			}
			if n == 0 {
				close(started)
			}
			select {
			case <-stop:
				scrapes <- n + 1
				return
			default:
			}
		}
	}()
	<-started
	res, err := RunDynamic(net, r, src, c.horizon, c.churn, c.threshold, opts)
	close(stop)
	t.Logf("%d scrapes during the run", <-scrapes)
	if err != nil {
		t.Fatal(err)
	}
	if res.Aggregate.Payments < 100 || res.SpanAborts == 0 {
		t.Fatalf("%d payments, %d span aborts: want a churned run", res.Aggregate.Payments, res.SpanAborts)
	}

	fl := r.(*core.Flash)
	st := fl.Stats()
	want := map[string]float64{
		"flash_elephants_total":                float64(st.Elephants),
		"flash_mice_total":                     float64(st.Mice),
		"flash_table_hits_total":               float64(st.TableHits),
		"flash_table_misses_total":             float64(st.TableMisses),
		"flash_table_entries":                  float64(st.TableEntries),
		"flash_table_invalidations_total":      float64(st.TableInvalidations),
		"flash_table_evictions_total":          float64(st.TableEvictions),
		"flash_paths_replaced_total":           float64(st.PathsReplaced),
		"flash_threshold_updates_total":        float64(st.ThresholdUpdates),
		"flash_sender_thresholds":              float64(st.SenderThresholds),
		"flash_sender_threshold_updates_total": float64(st.SenderThresholdUpdates),
		"flash_probe_width_updates_total":      float64(st.ProbeWidthUpdates),
		"flash_fee_program_fallbacks_total":    float64(st.FeeProgramFallbacks),
		"flash_threshold":                      fl.Threshold(),
		"flash_probe_workers":                  float64(fl.ProbeWorkers()),
		"pcn_holds_placed_total":               float64(net.HoldsPlaced()),
		"pcn_holds_committed_total":            float64(net.HoldsCommitted()),
		"pcn_holds_aborted_total":              float64(net.HoldsAborted()),
	}
	if st.Mice == 0 || st.TableInvalidations == 0 || net.HoldsAborted() == 0 {
		t.Fatalf("stats %+v, %d holds aborted: want mice, invalidations and aborts to compare", st, net.HoldsAborted())
	}
	checkSeries(t, reg, `{scheme="Flash"}`, want)
}

// checkSeries requires reg's Prometheus text to carry each name in want,
// with label block lbl, at its value.
func checkSeries(t *testing.T, reg *telemetry.Registry, lbl string, want map[string]float64) {
	t.Helper()
	var prom bytes.Buffer
	if err := reg.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	got := make(map[string]float64)
	for _, line := range strings.Split(prom.String(), "\n") {
		name, val, ok := strings.Cut(line, " ")
		if !ok || strings.HasPrefix(line, "#") {
			continue
		}
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			t.Fatalf("series %q: %v", line, err)
		}
		got[name] = v
	}
	for name, w := range want {
		if v, ok := got[name+lbl]; !ok || v != w {
			t.Errorf("%s%s = %v (present %v), want %v", name, lbl, v, ok, w)
		}
	}
}
