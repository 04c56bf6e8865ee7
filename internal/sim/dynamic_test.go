package sim

import (
	"errors"
	"math"
	"runtime"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/pcn"
	"repro/internal/route"
	"repro/internal/topo"
	"repro/internal/trace"
)

// goldenDynamicRun replays the golden scenario's payment list through
// RunDynamic with arrivals pinned to the trace order.
func goldenDynamicRun(t *testing.T, kind string, opts DynamicOptions) DynamicResult {
	t.Helper()
	net, r, payments, threshold := goldenCell(t, kind, 0)
	return replayTrace(t, net, r, payments, threshold, opts)
}

// replayTrace runs a payment list through RunDynamic with arrivals
// pinned to the trace, as Replay does, but with any engine options.
func replayTrace(t *testing.T, net *pcn.Network, r route.Router, payments []trace.Payment, threshold float64, opts DynamicOptions) DynamicResult {
	t.Helper()
	horizon := (payments[len(payments)-1].Time + 1) * trace.SecondsPerDay
	res, err := RunDynamic(net, r, trace.NewReplayStream(payments), horizon, nil, threshold, opts)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestDynamicZeroChurnEquivalence pins the dynamic engine to Replay:
// zero churn, zero service latency, one station, and arrivals in trace
// order must reproduce Replay's aggregate metrics exactly (wall-clock
// delays excepted), and through it the seed golden.
func TestDynamicZeroChurnEquivalence(t *testing.T) {
	for _, kind := range []string{KindRipple, KindLightning} {
		want := stripDelays(goldenRun(t, kind, 0, nil))
		res := goldenDynamicRun(t, kind, DynamicOptions{Workers: 1})
		if got := stripDelays(res.Aggregate); got != want {
			t.Errorf("%s: dynamic aggregate diverged from Replay:\n got  %+v\n want %+v", kind, got, want)
		}
		// And it must equal the seed golden, transitively.
		if got := stripDelays(res.Aggregate); got != goldenMetrics[kind] {
			t.Errorf("%s: dynamic aggregate diverged from seed golden", kind)
		}
	}
}

// TestDynamicWindowsSumToAggregate checks the time-series
// decomposition: window metrics merged together equal the aggregate.
func TestDynamicWindowsSumToAggregate(t *testing.T) {
	res := goldenDynamicRun(t, KindRipple, DynamicOptions{Workers: 1, Window: 1000})
	var sum Metrics
	for _, w := range res.Windows {
		sum.merge(w.Metrics)
	}
	agg := res.Aggregate
	if sum.Payments != agg.Payments || sum.Successes != agg.Successes ||
		sum.ProbeMessages != agg.ProbeMessages || sum.CommitMessages != agg.CommitMessages ||
		sum.MicePayments != agg.MicePayments || sum.ElephantSuccesses != agg.ElephantSuccesses {
		t.Errorf("windows sum %+v != aggregate %+v", sum, agg)
	}
	// Float sums may differ in the last ulp (different addition order).
	relClose := func(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(math.Abs(b), 1) }
	if !relClose(sum.SuccessVolume, agg.SuccessVolume) || !relClose(sum.AttemptVolume, agg.AttemptVolume) ||
		!relClose(sum.FeesPaid, agg.FeesPaid) {
		t.Errorf("window volume sums diverged: %+v vs %+v", sum, agg)
	}
	if len(res.Windows) < 2 {
		t.Errorf("expected multiple windows, got %d", len(res.Windows))
	}
}

// churnScenario is the catalogue churn cell at test scale.
func churnScenario(t *testing.T, workers int) Scenario {
	t.Helper()
	sc, err := NamedScenario("churn", KindRipple, 80)
	if err != nil {
		t.Fatal(err)
	}
	sc.Duration = 20
	sc.Rate = 10
	sc.Schemes = []string{SchemeFlash}
	sc.Workers = workers
	sc.Seed = 42
	return sc
}

// TestDynamicDeterministicEventLog is the determinism guarantee: the
// same seed yields identical event logs, fingerprints, and metrics —
// windows included — across runs of a full churn scenario.
func TestDynamicDeterministicEventLog(t *testing.T) {
	run := func() SchemeResult {
		results, err := Run(churnScenario(t, 1))
		if err != nil {
			t.Fatal(err)
		}
		return results[0]
	}
	a, b := run(), run()
	if a.Runs[0].Fingerprint != b.Runs[0].Fingerprint {
		t.Fatalf("fingerprints diverged: %x vs %x", a.Runs[0].Fingerprint, b.Runs[0].Fingerprint)
	}
	if stripDelays(a.Runs[0].Aggregate) != stripDelays(b.Runs[0].Aggregate) {
		t.Errorf("aggregates diverged:\n %+v\n %+v", a.Runs[0].Aggregate, b.Runs[0].Aggregate)
	}
	if len(a.Runs[0].Windows) != len(b.Runs[0].Windows) {
		t.Fatalf("window counts diverged: %d vs %d", len(a.Runs[0].Windows), len(b.Runs[0].Windows))
	}
	for i := range a.Runs[0].Windows {
		if stripDelays(a.Runs[0].Windows[i].Metrics) != stripDelays(b.Runs[0].Windows[i].Metrics) {
			t.Errorf("window %d diverged", i)
		}
	}
	if a.Runs[0].EventCounts != b.Runs[0].EventCounts {
		t.Errorf("event counts diverged: %v vs %v", a.Runs[0].EventCounts, b.Runs[0].EventCounts)
	}
	// The churn scenario must actually churn.
	if a.Runs[0].EventCounts[event.ChannelClose] == 0 || a.Runs[0].EventCounts[event.ChannelOpen] == 0 {
		t.Errorf("churn scenario applied no churn: %v", a.Runs[0].EventCounts)
	}
	if a.Runs[0].EventCounts[event.Rebalance] == 0 {
		t.Errorf("churn scenario applied no rebalances: %v", a.Runs[0].EventCounts)
	}
}

// TestDynamicChurnInvalidatesTables checks the router integration: a
// churn run against Flash must drop routing-table entries as channels
// close.
func TestDynamicChurnInvalidatesTables(t *testing.T) {
	sc := churnScenario(t, 1)
	c, err := sc.newCell(sc.Seed)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.churn) == 0 {
		t.Fatal("no churn events generated")
	}
	net := c.net
	stream, err := c.source()
	if err != nil {
		t.Fatal(err)
	}
	threshold, churn := c.threshold, c.churn
	fl := core.New(core.DefaultConfig(threshold))
	if _, err := RunDynamic(net, fl, stream, sc.Duration, churn, threshold, DynamicOptions{Workers: 1, Seed: sc.Seed}); err != nil {
		t.Fatal(err)
	}
	if st := fl.Stats(); st.TableInvalidations == 0 {
		t.Errorf("no routing-table entries invalidated under churn: %+v", st)
	}
}

// TestDynamicStationsDeterministic is the determinism guarantee at
// c = 8 stations: a churn run whose hold spans and retries make
// arrivals queue for a station repeats its fingerprint, event counts
// and aggregate across runs and under one and two Ps, because the
// stations are virtual and every payment routes on the event loop.
func TestDynamicStationsDeterministic(t *testing.T) {
	run := func(procs int) (DynamicResult, int) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		sc := churnScenario(t, 8)
		sc.Service = 0.5
		sc.Retries = 1
		sc.recordLog = true
		var audits []schedAudit
		sc.audit = func(a schedAudit) { audits = append(audits, a) }
		results, err := Run(sc)
		if err != nil {
			t.Fatal(err)
		}
		res := results[0].Runs[0]
		// An attempt dispatched after its arrival event waited for a
		// station.
		arrived := map[[2]int64]float64{}
		for _, ev := range res.Log {
			if ev.Kind == event.PaymentArrival {
				arrived[[2]int64{ev.ID, int64(ev.Attempt)}] = ev.Time
			}
		}
		queued := 0
		for _, a := range audits {
			if !a.Retry && a.At > arrived[[2]int64{a.ID, int64(a.Attempt)}] {
				queued++
			}
		}
		return res, queued
	}
	a, queued := run(2)
	if queued == 0 {
		t.Fatal("no arrival waited for a station")
	}
	m := a.Aggregate
	if m.Successes == 0 || m.Successes > m.Payments || m.SuccessVolume > m.AttemptVolume {
		t.Errorf("inconsistent metrics: %+v", m)
	}
	if a.EventCounts[event.ChannelClose] == 0 {
		t.Errorf("churn scenario applied no churn: %v", a.EventCounts)
	}
	for _, procs := range []int{2, 1} {
		b, _ := run(procs)
		if a.Fingerprint != b.Fingerprint {
			t.Errorf("GOMAXPROCS=%d: fingerprints diverged: %x vs %x", procs, a.Fingerprint, b.Fingerprint)
		}
		if a.EventCounts != b.EventCounts {
			t.Errorf("GOMAXPROCS=%d: event counts diverged: %v vs %v", procs, a.EventCounts, b.EventCounts)
		}
		if stripDelays(a.Aggregate) != stripDelays(b.Aggregate) {
			t.Errorf("GOMAXPROCS=%d: aggregates diverged:\n %+v\n %+v", procs, a.Aggregate, b.Aggregate)
		}
	}
}

// TestDynamicLatentChannelsOpen verifies latent channels join the
// topology after every base channel, closed, unfunded and unpriced;
// that adding them leaves every base channel's balances and fees as a
// plain BuildNetwork draws them; that the churn RNG draws the same
// pairs it always has (the literals below); and that the schedule
// funds some of them mid-run.
func TestDynamicLatentChannelsOpen(t *testing.T) {
	cells := []struct {
		kind   string
		seed   int64
		base   int
		latent []topo.Edge
	}{
		{KindRipple, 1, 185, []topo.Edge{{A: 6, B: 13}, {A: 16, B: 30}, {A: 18, B: 38}, {A: 14, B: 31}}},
		{KindRipple, 7, 185, []topo.Edge{{A: 13, B: 34}, {A: 13, B: 30}, {A: 15, B: 23}, {A: 0, B: 39}}},
		{KindLightning, 1, 252, []topo.Edge{{A: 9, B: 10}, {A: 16, B: 30}, {A: 18, B: 38}, {A: 5, B: 22}}},
		{KindLightning, 7, 252, []topo.Edge{{A: 13, B: 34}, {A: 13, B: 30}, {A: 15, B: 23}, {A: 14, B: 32}}},
		{KindTestbed, 1, 80, []topo.Edge{{A: 9, B: 10}, {A: 6, B: 13}, {A: 16, B: 30}, {A: 18, B: 38}}},
		{KindTestbed, 7, 79, []topo.Edge{{A: 13, B: 34}, {A: 13, B: 30}, {A: 15, B: 23}, {A: 5, B: 22}}},
	}
	for _, c := range cells {
		sc, err := NamedScenario("churn", c.kind, 40)
		if err != nil {
			t.Fatal(err)
		}
		sc.Seed = c.seed
		cl, err := sc.newCell(sc.Seed)
		if err != nil {
			t.Fatal(err)
		}
		net := cl.net
		plain, err := BuildNetwork(sc.Kind, sc.Nodes, sc.ScaleFactor, sc.Seed)
		if err != nil {
			t.Fatal(err)
		}
		g := net.Graph()
		latent := g.Channels()[min(plain.Graph().NumChannels(), g.NumChannels()):]
		if !slices.Equal(latent, c.latent) {
			t.Errorf("%s seed %d: latent channels %v, want %v", c.kind, c.seed, latent, c.latent)
		}
		if plain.Graph().NumChannels() != c.base || g.NumChannels() != c.base+len(latent) {
			t.Fatalf("%s seed %d: %d base and %d total channels, want %d and %d",
				c.kind, c.seed, plain.Graph().NumChannels(), g.NumChannels(), c.base, c.base+len(latent))
		}
		for i, e := range g.Channels() {
			var want [5]float64 // both balances, both fee rates, open
			if i < c.base {
				if e != plain.Graph().Channel(i) {
					t.Fatalf("%s seed %d: channel %d is %v, want %v", c.kind, c.seed, i, e, plain.Graph().Channel(i))
				}
				want = channelState(plain, e)
			} else if e != latent[i-c.base] {
				t.Fatalf("%s seed %d: channel %d is %v, want latent %v", c.kind, c.seed, i, e, latent[i-c.base])
			}
			if got := channelState(net, e); got != want {
				t.Errorf("%s seed %d: channel %d %v state %v, want %v", c.kind, c.seed, i, e, got, want)
			}
			if net.Fee(e.A, e.B).Base != 0 || net.Fee(e.B, e.A).Base != 0 {
				t.Errorf("%s seed %d: channel %d charges a base fee", c.kind, c.seed, i)
			}
		}
	}

	sc := churnScenario(t, 1)
	cl, err := sc.newCell(sc.Seed)
	if err != nil {
		t.Fatal(err)
	}
	net := cl.net
	plain, err := BuildNetwork(sc.Kind, sc.Nodes, sc.ScaleFactor, sc.Seed)
	if err != nil {
		t.Fatal(err)
	}
	if added := net.Graph().NumChannels() - plain.Graph().NumChannels(); added != sc.LatentChannels {
		t.Fatalf("added %d latent channels, want %d", added, sc.LatentChannels)
	}
	funded := 0
	for _, e := range cl.churn {
		if e.Kind == event.ChannelOpen && e.Amount > 0 {
			funded++
		}
	}
	if funded == 0 {
		t.Error("schedule never funds a latent channel")
	}
}

// channelState reads a channel's two balances, two fee rates and
// liveness (1 open, 0 closed).
func channelState(net *pcn.Network, e topo.Edge) [5]float64 {
	open := 0.0
	if net.IsChannelOpen(e.A, e.B) {
		open = 1
	}
	return [5]float64{
		net.Balance(e.A, e.B), net.Balance(e.B, e.A),
		net.Fee(e.A, e.B).Rate, net.Fee(e.B, e.A).Rate, open,
	}
}

// flakyRouter fails every payment's first routing attempt and succeeds
// afterwards — the deterministic fixture proving the retry policy
// recovers payments that a single attempt loses.
type flakyRouter struct {
	inner route.Router
	seen  map[int64]int
}

func (f *flakyRouter) Name() string { return "Flaky" }

func (f *flakyRouter) Route(s route.Session) error {
	key := int64(s.Sender())<<32 | int64(s.Receiver())
	f.seen[key]++
	if f.seen[key] == 1 {
		if err := s.Abort(); err != nil {
			return err
		}
		return errors.New("flaky: simulated first-attempt loss")
	}
	return f.inner.Route(s)
}

// TestRetriesLiftSuccessRatio is the retry-policy satellite's
// deterministic demonstration: against a router whose first attempt
// always fails, Retries=0 delivers nothing and Retries=1 delivers
// everything, lifting the success ratio from 0 to 1.
func TestRetriesLiftSuccessRatio(t *testing.T) {
	build := func() (*pcn.Network, []trace.Payment) {
		net, payments, err := BuildContention(3, 1000, 1000, 10)
		if err != nil {
			t.Fatal(err)
		}
		return net, payments
	}
	for _, workers := range []int{1, 4} {
		net, payments := build()
		r := &flakyRouter{inner: baselineShortestPath(t), seen: map[int64]int{}}
		m0 := replayTrace(t, net, r, payments, 1, DynamicOptions{Workers: workers, Seed: 7}).Aggregate
		if m0.Successes != 0 {
			t.Errorf("workers=%d retries=0: %d successes, want 0", workers, m0.Successes)
		}

		net, payments = build()
		r = &flakyRouter{inner: baselineShortestPath(t), seen: map[int64]int{}}
		m1 := replayTrace(t, net, r, payments, 1, DynamicOptions{Workers: workers, Seed: 7, Retries: 1}).Aggregate
		if m1.Successes != m1.Payments {
			t.Errorf("workers=%d retries=1: %d/%d delivered, want all", workers, m1.Successes, m1.Payments)
		}
		if m1.SuccessRatio() <= m0.SuccessRatio() {
			t.Errorf("workers=%d: retries did not lift success ratio (%.2f -> %.2f)",
				workers, m0.SuccessRatio(), m1.SuccessRatio())
		}
		// Retried attempts pay their message costs.
		if m1.CommitMessages <= m0.CommitMessages {
			t.Errorf("retry message accounting suspicious: %d <= %d", m1.CommitMessages, m0.CommitMessages)
		}
	}
}

// TestRetriesOnContentionNeverWorse replays the contention catalogue
// cell over sixteen stations with and without retries. Sixteen open
// spans overbook the bridge, so some holds lose to payments still in
// flight; those losses are not depletion (the barbell's flow nets out),
// so a retry after the spans drain recovers them and the retried run
// delivers strictly more.
func TestRetriesOnContentionNeverWorse(t *testing.T) {
	run := func(retries int) Metrics {
		sc := contentionScenario(t)
		sc.Workers = 16
		sc.Service = 2
		sc.Retries = retries
		results, err := Run(sc)
		if err != nil {
			t.Fatal(err)
		}
		return results[0].Runs[0].Aggregate
	}
	m0, m3 := run(0), run(3)
	if m0.Successes == m0.Payments {
		t.Fatalf("no contention: every payment delivered without retries (%d)", m0.Payments)
	}
	if m3.Payments != m0.Payments {
		t.Errorf("retries changed the workload: %d -> %d payments", m0.Payments, m3.Payments)
	}
	if m3.Successes <= m0.Successes {
		t.Errorf("retries did not recover contention losses: %d -> %d successes", m0.Successes, m3.Successes)
	}
}

// TestDynamicRetriesVirtualBackoff checks the dynamic engine's retry
// path: a flaky router under RunDynamic delivers everything with one
// retry, and the retry arrivals appear in the event log.
func TestDynamicRetriesVirtualBackoff(t *testing.T) {
	net, payments, err := BuildContention(3, 1000, 1000, 10)
	if err != nil {
		t.Fatal(err)
	}
	r := &flakyRouter{inner: baselineShortestPath(t), seen: map[int64]int{}}
	horizon := (payments[len(payments)-1].Time + 1) * trace.SecondsPerDay
	res, err := RunDynamic(net, r, trace.NewReplayStream(payments), horizon, nil, 1,
		DynamicOptions{Workers: 1, Seed: 7, Retries: 1, recordLog: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Aggregate.Successes != res.Aggregate.Payments {
		t.Errorf("delivered %d/%d with retries", res.Aggregate.Successes, res.Aggregate.Payments)
	}
	retryArrivals := 0
	for _, e := range res.Log {
		if e.Kind == event.PaymentArrival && e.Attempt > 0 {
			retryArrivals++
			if e.Time <= 0 {
				t.Errorf("retry arrival without backoff: %v", e)
			}
		}
	}
	if retryArrivals != res.Aggregate.Payments {
		t.Errorf("retry arrivals = %d, want one per payment (%d)", retryArrivals, res.Aggregate.Payments)
	}
}

// TestDynamicDemandShift verifies the demand-shift event reaches the
// generator: post-shift windows carry visibly larger attempt volumes.
func TestDynamicDemandShift(t *testing.T) {
	sc, err := NamedScenario("steady", KindRipple, 60)
	if err != nil {
		t.Fatal(err)
	}
	sc.Duration = 20
	sc.Rate = 20
	sc.Window = 10
	sc.Seed = 5
	sc.Schemes = []string{SchemeShortestPath}
	sc.DemandShiftFactor = 100
	sc.DemandShiftFrac = 0.5
	results, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	w := results[0].Runs[0].Windows
	if len(w) < 2 {
		t.Fatalf("got %d windows", len(w))
	}
	firstMean := w[0].Metrics.AttemptVolume / float64(w[0].Metrics.Payments)
	lastMean := w[len(w)-1].Metrics.AttemptVolume / float64(w[len(w)-1].Metrics.Payments)
	if lastMean < 5*firstMean {
		t.Errorf("demand shift invisible: mean amount %v -> %v", firstMean, lastMean)
	}
}

// TestDemandShiftTracksDuration pins the fix for the frozen-shift bug:
// the flash-crowd preset's demand shift must fire inside the horizon
// (at the surge start) for any Duration override.
func TestDemandShiftTracksDuration(t *testing.T) {
	for _, duration := range []float64{8, 30, 120} {
		sc, err := NamedScenario("flash-crowd", KindRipple, 60)
		if err != nil {
			t.Fatal(err)
		}
		sc.Duration = duration
		sc.Rate = 5
		sc.Schemes = []string{SchemeShortestPath}
		results, err := Run(sc)
		if err != nil {
			t.Fatal(err)
		}
		if got := results[0].Runs[0].EventCounts[event.DemandShift]; got != 1 {
			t.Errorf("duration %v: %d demand-shift events applied, want 1", duration, got)
		}
	}
}

// TestNamedDynamicScenarios exercises every catalogue entry end to end
// at tiny scale.
func TestNamedDynamicScenarios(t *testing.T) {
	for _, name := range ScenarioNames {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			sc, err := NamedScenario(name, KindRipple, 60)
			if err != nil {
				t.Fatal(err)
			}
			sc.Duration = 10
			sc.Rate = 8
			sc.Schemes = []string{SchemeFlash, SchemeShortestPath}
			results, err := Run(sc)
			if err != nil {
				t.Fatal(err)
			}
			if len(results) != 2 {
				t.Fatalf("got %d scheme results", len(results))
			}
			for _, r := range results {
				m := r.Runs[0].Aggregate
				if m.Payments == 0 {
					t.Errorf("%s: no payments replayed", r.Scheme)
				}
				if m.SuccessVolume > m.AttemptVolume || m.Successes > m.Payments {
					t.Errorf("%s: inconsistent metrics %+v", r.Scheme, m)
				}
			}
		})
	}
	if _, err := NamedScenario("bogus", KindRipple, 60); err == nil {
		t.Error("unknown scenario accepted")
	}
}

// TestRunDynamicValidation covers the error paths.
func TestRunDynamicValidation(t *testing.T) {
	net, payments, err := BuildContention(2, 100, 100, 1)
	if err != nil {
		t.Fatal(err)
	}
	r := baselineShortestPath(t)
	if _, err := RunDynamic(net, r, trace.NewReplayStream(payments), 0, nil, 1, DynamicOptions{}); err == nil {
		t.Error("zero horizon accepted")
	}
	bad := []event.Event{{Time: 1, Kind: event.PaymentArrival}}
	if _, err := RunDynamic(net, r, trace.NewReplayStream(payments), 10, bad, 1, DynamicOptions{}); err == nil {
		t.Error("payment event in churn schedule accepted")
	}
	if _, err := Run(Scenario{Kind: KindRipple, Nodes: 10, Rate: 1}); err == nil {
		t.Error("zero-duration scenario accepted")
	}
	if _, err := Run(Scenario{Kind: KindRipple, Nodes: 10, Duration: 1}); err == nil {
		t.Error("zero-rate scenario accepted")
	}
	sc := Scenario{Kind: KindRipple, Nodes: 30, Duration: 1, Rate: 1, Arrival: "bogus"}
	if _, err := Run(sc); err == nil {
		t.Error("unknown arrival process accepted")
	}
}

// baselineShortestPath builds the simple baseline router for fixtures.
func baselineShortestPath(t *testing.T) route.Router {
	t.Helper()
	r, err := BuildRouter(RouterSpec{Scheme: SchemeShortestPath, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestRetriesZeroMatchesGolden re-pins the golden equivalence with the
// retry plumbing in place: Retries=0 must be byte-identical to the
// historical single-attempt replay.
func TestRetriesZeroMatchesGolden(t *testing.T) {
	got := stripDelays(goldenRun(t, KindRipple, 0, nil))
	if got != goldenMetrics[KindRipple] {
		t.Errorf("Retries=0 diverged from golden:\n got  %+v\n want %+v", got, goldenMetrics[KindRipple])
	}
}
