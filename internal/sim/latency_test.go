package sim

import (
	"bytes"
	"math"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/trace"
)

// TestLatencyStats pins the estimator wrapper: exact count/sum/max,
// percentiles within the P² estimator's tolerance on a known
// distribution, and a zero value that reports zeros.
func TestLatencyStats(t *testing.T) {
	var zero LatencyStats
	if zero.Count != 0 || zero.Mean() != 0 || zero.P50() != 0 || zero.P95() != 0 || zero.P99() != 0 {
		t.Errorf("zero LatencyStats not zero: %+v", zero)
	}

	var l LatencyStats
	n := 10000
	for i := 0; i < n; i++ {
		l.Observe(float64(i+1) / float64(n)) // uniform (0, 1]
	}
	if l.Count != n {
		t.Errorf("Count = %d, want %d", l.Count, n)
	}
	if math.Abs(l.Mean()-0.5) > 1e-3 {
		t.Errorf("Mean = %v, want ~0.5", l.Mean())
	}
	if l.Max != 1 {
		t.Errorf("Max = %v, want 1", l.Max)
	}
	for _, c := range []struct {
		got, want, tol float64
		name           string
	}{
		{l.P50(), 0.50, 0.02, "p50"},
		{l.P95(), 0.95, 0.02, "p95"},
		{l.P99(), 0.99, 0.02, "p99"},
	} {
		if math.Abs(c.got-c.want) > c.tol {
			t.Errorf("%s = %v, want %v ± %v", c.name, c.got, c.want, c.tol)
		}
	}
	if !(l.P50() <= l.P95() && l.P95() <= l.P99() && l.P99() <= l.Max) {
		t.Errorf("percentiles not monotone: %v %v %v max %v", l.P50(), l.P95(), l.P99(), l.Max)
	}
}

// latencyScenario is the latency-slo catalogue cell at test scale.
func latencyScenario(t *testing.T, name string) Scenario {
	t.Helper()
	sc, err := NamedScenario(name, KindRipple, 60)
	if err != nil {
		t.Fatal(err)
	}
	sc.Duration = 12
	sc.Rate = 8
	sc.Schemes = []string{SchemeFlash}
	sc.Seed = 42
	return sc
}

// TestDynamicLatencyDeterministicRender is the latency model's
// determinism guarantee at the CLI's observable level: the same seed
// at workers=1 yields byte-identical rendered tables — latency
// percentile columns included — and identical fingerprints.
func TestDynamicLatencyDeterministicRender(t *testing.T) {
	run := func() (string, uint64) {
		results, err := Run(latencyScenario(t, "latency-slo"))
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		WriteDynamicResult(&buf, results[0].Scheme, results[0].Runs[0], false)
		return buf.String(), results[0].Runs[0].Fingerprint
	}
	outA, fpA := run()
	outB, fpB := run()
	if fpA != fpB {
		t.Fatalf("fingerprints diverged: %x vs %x", fpA, fpB)
	}
	if outA != outB {
		t.Fatalf("rendered output diverged:\n--- A ---\n%s\n--- B ---\n%s", outA, outB)
	}
	if !strings.Contains(outA, "p50 lat") || !strings.Contains(outA, "p95 lat") || !strings.Contains(outA, "p99 lat") {
		t.Errorf("latency-on render missing percentile columns:\n%s", outA)
	}
}

// TestDynamicLatencyOffRenderUnchanged guards the nil path at the
// render layer: with no RTTs and no deadline the result reports
// LatencyOn=false and the table carries none of the latency columns or
// the expiry footer — the shape every pre-latency golden was recorded
// against. (The engine-level byte identity is pinned separately by
// TestDynamicZeroChurnEquivalence against the seed goldens.)
func TestDynamicLatencyOffRenderUnchanged(t *testing.T) {
	sc := latencyScenario(t, "steady")
	results, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	res := results[0].Runs[0]
	if res.LatencyOn {
		t.Error("steady scenario reports LatencyOn")
	}
	if res.DeadlineExpiries != 0 || res.Latency.Count != 0 {
		t.Errorf("latency-off run accumulated latency state: %+v", res.Latency)
	}
	var buf bytes.Buffer
	WriteDynamicResult(&buf, results[0].Scheme, res, false)
	out := buf.String()
	for _, banned := range []string{"p50 lat", "p95 lat", "p99 lat", "deadline expiries"} {
		if strings.Contains(out, banned) {
			t.Errorf("latency-off render contains %q:\n%s", banned, out)
		}
	}
	var jsonBuf bytes.Buffer
	if err := WriteDynamicJSON(&jsonBuf, results[0].Scheme, res); err != nil {
		t.Fatal(err)
	}
	for _, banned := range []string{`"latency"`, `"deadline"`, `"deadlineExpiries"`} {
		if strings.Contains(jsonBuf.String(), banned) {
			t.Errorf("latency-off JSON contains %s:\n%s", banned, jsonBuf.String())
		}
	}
}

// TestDeadlineExpiryDeterminism pins the expiry path's determinism:
// the same seed yields the same fingerprint with DeadlineExpiry events
// in the stream, and the expiry count is stable.
func TestDeadlineExpiryDeterminism(t *testing.T) {
	run := func() DynamicResult {
		sc := latencyScenario(t, "griefing")
		sc.Duration = 20
		sc.Rate = 6
		results, err := Run(sc)
		if err != nil {
			t.Fatal(err)
		}
		return results[0].Runs[0]
	}
	a, b := run(), run()
	if a.Fingerprint != b.Fingerprint {
		t.Fatalf("fingerprints diverged: %x vs %x", a.Fingerprint, b.Fingerprint)
	}
	if a.DeadlineExpiries != b.DeadlineExpiries {
		t.Fatalf("expiry counts diverged: %d vs %d", a.DeadlineExpiries, b.DeadlineExpiries)
	}
	if a.DeadlineExpiries == 0 {
		t.Error("griefing scenario produced no deadline expiries")
	}
	if got := a.EventCounts[event.DeadlineExpiry]; got != a.DeadlineExpiries {
		t.Errorf("event count %d != DeadlineExpiries %d", got, a.DeadlineExpiries)
	}
}

// TestDynamicDeadlineAtStations drives the griefing scenario over four
// stations: griefers' spans still expire at their deadline, and each
// expiry is one logged DeadlineExpiry.
func TestDynamicDeadlineAtStations(t *testing.T) {
	sc := latencyScenario(t, "griefing")
	sc.Duration = 15
	sc.Workers = 4
	results, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	res := results[0].Runs[0]
	m := res.Aggregate
	if m.Payments == 0 {
		t.Fatal("no payments replayed")
	}
	if m.Successes > m.Payments || m.SuccessVolume > m.AttemptVolume+1e-9 {
		t.Errorf("inconsistent metrics: %+v", m)
	}
	if res.DeadlineExpiries == 0 {
		t.Error("griefing run over four stations produced no deadline expiries")
	}
	if got := res.EventCounts[event.DeadlineExpiry]; got != res.DeadlineExpiries {
		t.Errorf("event count %d != DeadlineExpiries %d", got, res.DeadlineExpiries)
	}
}

// TestGriefingPairedControl demonstrates the attack and its defence
// with paired controls: against the no-attack baseline, griefers
// pinning bridge liquidity collapse the success ratio when expiry is
// disabled, and the HTLC deadline claws a large part of it back by
// tearing the griefed holds down.
func TestGriefingPairedControl(t *testing.T) {
	run := func(mut func(*Scenario)) DynamicResult {
		sc := latencyScenario(t, "griefing")
		sc.Duration = 30
		sc.Rate = 6
		mut(&sc)
		results, err := Run(sc)
		if err != nil {
			t.Fatal(err)
		}
		return results[0].Runs[0]
	}
	clean := run(func(sc *Scenario) { sc.GriefFrac = 0 })
	defended := run(func(sc *Scenario) {})
	undefended := run(func(sc *Scenario) { sc.Deadline = 0 })

	if defended.DeadlineExpiries == 0 {
		t.Error("defended run tore down no griefed holds")
	}
	if defended.DeadlineExpiries <= clean.DeadlineExpiries {
		// Honest exponential service occasionally outlives the deadline
		// too; the attack's signature is the expiry excess over that
		// baseline, every extra one a griefed hold torn down.
		t.Errorf("attack caused no excess expiries: defended %d <= clean %d",
			defended.DeadlineExpiries, clean.DeadlineExpiries)
	}
	rClean := clean.Aggregate.SuccessRatio()
	rDef := defended.Aggregate.SuccessRatio()
	rUndef := undefended.Aggregate.SuccessRatio()
	if !(rClean > rDef) {
		t.Errorf("attack invisible: clean %.3f <= defended %.3f", rClean, rDef)
	}
	if !(rDef > rUndef) {
		t.Errorf("deadline defence invisible: defended %.3f <= undefended %.3f", rDef, rUndef)
	}
}

// TestExactVirtualTimeAccounting is the latency model's central
// property: every scheduled settle, expiry, and retry time is the
// exact float64 sum of its audited components, the chain of decisions
// for one payment is gapless (each decision starts at the previous
// event's instant), and a payment's final completion time replayed
// from its audit chain reproduces the logged event time bit for bit —
// completion == arrival + charged latency + service + resume legs +
// retry backoffs, with no hidden terms.
func TestExactVirtualTimeAccounting(t *testing.T) {
	const deadline = 3.0
	net, err := BuildNetwork(KindRipple, 60, 10, 7)
	if err != nil {
		t.Fatal(err)
	}
	net.AssignLatenciesLogNormal(newLatencyRNG(7), 0.05, 0.8)
	cfg := trace.DefaultConfig(net.Graph().NumNodes())
	cfg.Graph = net.Graph()
	cfg.Seed = 7
	gen, err := trace.NewGenerator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	payments := gen.Generate(200)
	threshold := core.ThresholdForMiceFraction(trace.Amounts(payments), 0.9)
	r, err := BuildRouter(RouterSpec{Scheme: SchemeFlash, Threshold: threshold, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}

	var audits []schedAudit
	opts := DynamicOptions{
		Workers: 1, Seed: 7, Retries: 2, Service: 1, Deadline: deadline, recordLog: true,
		audit: func(a schedAudit) { audits = append(audits, a) },
	}
	horizon := (payments[len(payments)-1].Time + 1) * trace.SecondsPerDay
	res, err := RunDynamic(net, r, trace.NewReplayStream(payments), horizon, nil, threshold, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(audits) == 0 {
		t.Fatal("audit hook never fired")
	}

	// Per-decision identity: the scheduled time IS the sum, bitwise.
	expired := 0
	for i, a := range audits {
		var want float64
		switch {
		case a.Retry:
			want = a.At + a.Backoff
		case a.Expired:
			want = a.At + a.Lat + deadline
		default:
			want = a.At + a.Lat + a.Service + a.ResumeLat
		}
		if a.EventAt != want {
			t.Fatalf("audit %d: EventAt %v != component sum %v (%+v)", i, a.EventAt, want, a)
		}
		if a.Expired {
			expired++
		}
	}
	if expired != res.DeadlineExpiries {
		t.Errorf("audited expiries %d != result's %d", expired, res.DeadlineExpiries)
	}

	// Chain reconstruction: group the log's terminal events and the
	// audits per payment, then replay each chain from its first
	// arrival. Exact float64 equality at every link.
	arrivals := map[int64]float64{}   // first-attempt arrival instants
	terminal := map[int64][]float64{} // settle/expiry event times in order
	for _, e := range res.Log {
		switch e.Kind {
		case event.PaymentArrival:
			if e.Attempt == 0 {
				arrivals[e.ID] = e.Time
			}
		case event.PaymentComplete, event.DeadlineExpiry:
			terminal[e.ID] = append(terminal[e.ID], e.Time)
		}
	}
	byID := map[int64][]schedAudit{}
	ids := []int64{}
	for _, a := range audits {
		if len(byID[a.ID]) == 0 {
			ids = append(ids, a.ID)
		}
		byID[a.ID] = append(byID[a.ID], a)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	checked := 0
	for _, id := range ids {
		chain := byID[id]
		arrival, ok := arrivals[id]
		if !ok {
			t.Fatalf("payment %d audited but never arrived in the log", id)
		}
		x := arrival
		settleIdx := 0
		for _, a := range chain {
			if a.At != x {
				t.Fatalf("payment %d: decision starts at %v, previous event ended at %v (%+v)", id, a.At, x, a)
			}
			switch {
			case a.Retry:
				x = a.At + a.Backoff
			case a.Expired:
				x = a.At + a.Lat + deadline
			default:
				x = a.At + a.Lat + a.Service + a.ResumeLat
			}
			if !a.Retry {
				// A settle/expiry decision must reproduce the logged
				// event instant exactly.
				times := terminal[id]
				if settleIdx >= len(times) {
					t.Fatalf("payment %d: more audited settles than logged events", id)
				}
				if times[settleIdx] != x {
					t.Fatalf("payment %d settle %d: log says %v, audit chain says %v", id, settleIdx, times[settleIdx], x)
				}
				settleIdx++
				checked++
			}
		}
	}
	if checked == 0 {
		t.Fatal("no settle decisions cross-checked against the log")
	}
	if res.Latency.Count == 0 {
		t.Error("no completion latencies observed despite RTTs on")
	}
}
