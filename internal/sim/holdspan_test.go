package sim

import (
	"testing"

	"repro/internal/event"
	"repro/internal/pcn"
	"repro/internal/topo"
	"repro/internal/trace"
)

// holdSpanFixture is the two-node network of the hold-span acceptance
// test: one channel 0–1 funded (10, 10), payment A sending 0→1 : 8 at
// t = 0.5s and payment B sending 1→0 : 12 at t = 1s. B needs 12 on the
// 1→0 direction, which only exists after A's 8 units settle — so B's
// fate depends entirely on *when* A's commit lands.
func holdSpanFixture(t *testing.T) (*pcn.Network, []trace.Payment) {
	t.Helper()
	g := topo.New(2)
	g.MustAddChannel(0, 1)
	net := pcn.New(g)
	if err := net.SetBalance(0, 1, 10, 10); err != nil {
		t.Fatal(err)
	}
	payments := []trace.Payment{
		{ID: 0, Sender: 0, Receiver: 1, Amount: 8, Time: 0.5 / trace.SecondsPerDay},
		{ID: 1, Sender: 1, Receiver: 0, Amount: 12, Time: 1.0 / trace.SecondsPerDay},
	}
	return net, payments
}

// runHoldSpanFixture replays the fixture deterministically.
func runHoldSpanFixture(t *testing.T, service float64, retries int) DynamicResult {
	t.Helper()
	net, payments := holdSpanFixture(t)
	res, err := RunDynamic(net, baselineShortestPath(t), trace.NewReplayStream(payments), 60, nil, 1,
		DynamicOptions{Workers: 1, Seed: 3, Service: service, Retries: retries, recordLog: true})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestHoldSpanBlocksThenUnblocks is the tentpole's acceptance
// demonstration: with hold spans enabled, payment B fails at its
// arrival instant *because* payment A's hold still occupies the
// channel — the 8 units A locked have not crossed yet — and succeeds
// on a retry scheduled after A's span commits. The identical workload
// with Service = 0 (atomic commit at dispatch) delivers B on its first
// attempt, pinning the hold as the only cause of the failure.
func TestHoldSpanBlocksThenUnblocks(t *testing.T) {
	// Service = 0: A settles at dispatch, so B's arrival at t=1s
	// already sees bal(1→0) = 18 and delivers first try.
	atomic := runHoldSpanFixture(t, 0, 4)
	if got := atomic.Aggregate.Successes; got != 2 {
		t.Fatalf("service=0: %d/2 delivered", got)
	}
	for _, e := range atomic.Log {
		if e.Kind == event.PaymentArrival && e.Attempt > 0 {
			t.Fatalf("service=0: unexpected retry %v", e)
		}
	}

	// Service > 0: A suspends on the yield seam; B arrives mid-span,
	// probes bal(1→0) = 10 < 12, fails, and only a retry after A's
	// commit-phase event can deliver it.
	spans := runHoldSpanFixture(t, 2, 6)
	if got := spans.Aggregate.Successes; got != 2 {
		t.Fatalf("service>0: %d/2 delivered (retries exhausted before A's span ended?)", got)
	}
	var (
		bRetries     int
		aCommitAt    = -1.0
		bDeliveredAt = -1.0
	)
	for _, e := range spans.Log {
		if e.Kind == event.PaymentArrival && e.ID == 1 && e.Attempt > 0 {
			bRetries++
		}
		if e.Kind == event.PaymentComplete && e.ID == 0 {
			aCommitAt = e.Time
		}
		if e.Kind == event.PaymentComplete && e.ID == 1 {
			bDeliveredAt = e.Time // last completion wins (the delivering one)
		}
	}
	if bRetries == 0 {
		t.Fatal("B never retried: its first attempt was not blocked by A's hold")
	}
	if aCommitAt < 0 || bDeliveredAt < aCommitAt {
		t.Errorf("B delivered at t=%v, before A's span committed at t=%v", bDeliveredAt, aCommitAt)
	}
	if spans.SpanAborts != 0 {
		t.Errorf("no channel closed, yet %d span aborts", spans.SpanAborts)
	}

	// Same seed, same bytes: the hold-span run is fully deterministic.
	again := runHoldSpanFixture(t, 2, 6)
	if again.Fingerprint != spans.Fingerprint {
		t.Errorf("hold-span fingerprints diverged: %x vs %x", spans.Fingerprint, again.Fingerprint)
	}
}

// contentionScenario is the catalogue contention cell at test scale.
func contentionScenario(t *testing.T) Scenario {
	t.Helper()
	sc, err := NamedScenario("contention", KindRipple, 20)
	if err != nil {
		t.Fatal(err)
	}
	sc.Schemes = []string{SchemeShortestPath}
	sc.Workers = 1
	sc.Seed = 11
	return sc
}

// TestContentionScenarioDegradesThenRecovers pins the contention
// catalogue entry's time-series shape: with hold spans the bridge
// channel saturates under overlapping holds — some windows lose
// payments — and drains back to full success; the identical cell with
// Service = 0 never fails at all, attributing every failure to holds
// spanning virtual time.
func TestContentionScenarioDegradesThenRecovers(t *testing.T) {
	run := func(service float64) DynamicResult {
		sc := contentionScenario(t)
		sc.Service = service
		results, err := Run(sc)
		if err != nil {
			t.Fatal(err)
		}
		return results[0].Runs[0]
	}

	atomic := run(0)
	if got := atomic.Aggregate.SuccessRatio(); got != 1 {
		t.Fatalf("service=0 contention run lost payments: ratio %.3f", got)
	}

	spans := run(2)
	agg := spans.Aggregate
	if agg.Successes == agg.Payments {
		t.Fatal("contention scenario produced no contention: every payment delivered")
	}
	if agg.Successes == 0 {
		t.Fatal("contention scenario delivered nothing")
	}
	ratios := make([]float64, len(spans.Windows))
	for i, w := range spans.Windows {
		ratios[i] = w.Metrics.SuccessRatio()
	}
	minRatio, last := 1.0, ratios[len(ratios)-1]
	for _, r := range ratios {
		if r < minRatio {
			minRatio = r
		}
	}
	if minRatio >= 1 {
		t.Errorf("no window degraded: ratios %v", ratios)
	}
	if last <= minRatio {
		t.Errorf("success never recovered after holds drained: min %.3f, final window %.3f (ratios %v)", minRatio, last, ratios)
	}

	// Deterministic: same seed, same windows and fingerprint.
	again := run(2)
	if again.Fingerprint != spans.Fingerprint {
		t.Fatalf("contention fingerprints diverged: %x vs %x", spans.Fingerprint, again.Fingerprint)
	}
	for i := range spans.Windows {
		if stripDelays(spans.Windows[i].Metrics) != stripDelays(again.Windows[i].Metrics) {
			t.Errorf("window %d diverged across same-seed runs", i)
		}
	}
}

// TestHubFailureScenarioAbortsInFlightHolds pins the hub-failure
// catalogue entry: every channel of the top-degree node closes
// mid-run, payments suspended across the failure abort
// (DynamicResult.SpanAborts), and the post-failure success ratio drops
// below the pre-failure level — deterministically.
func TestHubFailureScenarioAbortsInFlightHolds(t *testing.T) {
	run := func() DynamicResult {
		sc, err := NamedScenario("hub-failure", KindRipple, 80)
		if err != nil {
			t.Fatal(err)
		}
		sc.Duration = 20
		sc.Schemes = []string{SchemeFlash}
		sc.Workers = 1
		sc.Seed = 7
		results, err := Run(sc)
		if err != nil {
			t.Fatal(err)
		}
		return results[0].Runs[0]
	}
	res := run()
	if res.EventCounts[event.ChannelClose] == 0 {
		t.Fatal("hub failure closed no channels")
	}
	if res.SpanAborts == 0 {
		t.Error("no in-flight hold aborted at the hub failure")
	}
	// Success degrades once the hub is gone: compare the windows fully
	// before and fully after the failure instant (t = Duration/2).
	var pre, post Metrics
	for _, w := range res.Windows {
		if w.End <= res.Horizon/2 {
			pre.merge(w.Metrics)
		}
		if w.Start >= res.Horizon/2 {
			post.merge(w.Metrics)
		}
	}
	if pre.Payments == 0 || post.Payments == 0 {
		t.Fatalf("degenerate window split: pre %d, post %d payments", pre.Payments, post.Payments)
	}
	if post.SuccessRatio() >= pre.SuccessRatio() {
		t.Errorf("hub failure invisible: success %.3f before vs %.3f after", pre.SuccessRatio(), post.SuccessRatio())
	}

	again := run()
	if again.Fingerprint != res.Fingerprint || again.SpanAborts != res.SpanAborts {
		t.Errorf("hub-failure runs diverged: fp %x/%x, aborts %d/%d",
			res.Fingerprint, again.Fingerprint, res.SpanAborts, again.SpanAborts)
	}
}

// TestHoldSpanServiceZeroUnchanged re-pins the compatibility
// guarantee with the hold-span machinery in place: Service = 0 dynamic
// runs still reproduce the sequential replay exactly (the zero-churn
// equivalence test covers the metrics; this asserts the fingerprint is
// also stable across runs, i.e. the engine stayed deterministic).
func TestHoldSpanServiceZeroUnchanged(t *testing.T) {
	a := goldenDynamicRun(t, KindRipple, DynamicOptions{Workers: 1})
	b := goldenDynamicRun(t, KindRipple, DynamicOptions{Workers: 1, Service: 0})
	if a.Fingerprint != b.Fingerprint {
		t.Errorf("explicit Service=0 changed the event log: %x vs %x", a.Fingerprint, b.Fingerprint)
	}
	if stripDelays(a.Aggregate) != stripDelays(b.Aggregate) {
		t.Errorf("explicit Service=0 changed metrics")
	}
	if a.SpanAborts != 0 || b.SpanAborts != 0 {
		t.Errorf("span aborts counted without hold spans: %d, %d", a.SpanAborts, b.SpanAborts)
	}
}
