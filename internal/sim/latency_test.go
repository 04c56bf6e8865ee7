package sim

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// exactQuantile is the nearest-rank pct-th percentile of sorted: its
// ⌈pct·n/100⌉-th smallest value.
func exactQuantile(sorted []float64, pct int) float64 {
	return sorted[(pct*len(sorted)+99)/100-1]
}

// checkLatencyOracle requires l, fed exactly vs in some order, to hold
// vs' count and extremes and to report each percentile within the
// histogram's stated error of the exact nearest-rank quantile: 2^-8
// relative inside [2^-32, 2^32) s, at most the exact value (and at
// least Min) below it, and Max above it.
func checkLatencyOracle(t testing.TB, l *LatencyStats, vs []float64) {
	t.Helper()
	if len(vs) == 0 {
		if l.Count != 0 || l.P50() != 0 || l.P95() != 0 || l.P99() != 0 {
			t.Errorf("empty LatencyStats not zero: count %d, p50/p95/p99 %v %v %v", l.Count, l.P50(), l.P95(), l.P99())
		}
		return
	}
	sorted := append([]float64(nil), vs...)
	sort.Float64s(sorted)
	if l.Count != len(vs) || l.Min != sorted[0] || l.Max != sorted[len(sorted)-1] {
		t.Fatalf("count/min/max = %d/%v/%v, want %d/%v/%v", l.Count, l.Min, l.Max, len(vs), sorted[0], sorted[len(sorted)-1])
	}
	prev := l.Min
	for _, q := range []struct {
		pct int
		got float64
	}{{50, l.P50()}, {95, l.P95()}, {99, l.P99()}} {
		pct, got, want := q.pct, q.got, exactQuantile(sorted, q.pct)
		ok := false
		switch {
		case want < 0x1p-32:
			ok = got >= l.Min && got <= want
		case want >= 0x1p32:
			ok = got == l.Max
		default:
			ok = math.Abs(got-want) <= 0x1p-8*want
		}
		if !ok {
			t.Errorf("n=%d p%d = %v, exact %v (min %v, max %v)", len(vs), pct, got, want, l.Min, l.Max)
		}
		if got < prev || got > l.Max {
			t.Errorf("n=%d p%d = %v out of order: previous %v, max %v", len(vs), pct, got, prev, l.Max)
		}
		prev = got
	}
}

// latencyCounts returns l's non-zero bucket counts by key.
func latencyCounts(l *LatencyStats) map[int]uint64 {
	m := map[int]uint64{}
	for i, c := range l.counts {
		if c != 0 {
			m[l.lo+i] = c
		}
	}
	return m
}

// checkWindowSum splits vs, in order, into windows of the given sizes
// (cycled; 0 is an empty window, and no positive size means windows of
// one), sums them the way the engine's finish does, and requires the
// sum to hold exactly the counts of one histogram fed the whole
// stream, and the same percentiles.
func checkWindowSum(t testing.TB, vs []float64, sizes []int) {
	t.Helper()
	if slices.Max(append([]int{0}, sizes...)) == 0 {
		sizes = nil
	}
	var whole, run LatencyStats
	var ws []Window
	for i := 0; i < len(vs); {
		n := 1
		if len(sizes) > 0 {
			n = sizes[len(ws)%len(sizes)]
		}
		var w Window
		for ; n > 0 && i < len(vs); n, i = n-1, i+1 {
			whole.Observe(vs[i])
			run.Summary.Add(vs[i])
			w.Latency.Observe(vs[i])
		}
		ws = append(ws, w)
	}
	run.sumWindows(ws)
	got, want := latencyCounts(&run), latencyCounts(&whole)
	if len(got) != len(want) {
		t.Fatalf("window sum has %d non-empty buckets, the whole stream %d", len(got), len(want))
	}
	for k, c := range want {
		if got[k] != c {
			t.Fatalf("bucket %d: window sum %d, whole stream %d", k, got[k], c)
		}
	}
	for _, pct := range []int{50, 95, 99} {
		if a, b := run.quantile(pct), whole.quantile(pct); a != b {
			t.Errorf("p%d: window sum %v, whole stream %v", pct, a, b)
		}
	}
}

// TestLatencyStats checks the histogram against exact sorted
// quantiles: empty, one sample, all values equal, zero latency, values
// beyond the bucket range, log-normal tails, and n from 1 to 10^5;
// and that a sum of windows equals the whole stream's histogram count
// for count.
func TestLatencyStats(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	lognormal := func(n int, median, sigma float64) []float64 {
		vs := make([]float64, n)
		for i := range vs {
			vs[i] = stats.LogNormal(rng, median, sigma)
		}
		return vs
	}
	repeat := func(n int, v float64) []float64 {
		vs := make([]float64, n)
		for i := range vs {
			vs[i] = v
		}
		return vs
	}
	cases := map[string][]float64{
		"empty":             nil,
		"one sample":        {0.0375},
		"all equal":         repeat(1000, 0.3),
		"zero latency":      repeat(50, 0),
		"zero and some":     append(repeat(90, 0), lognormal(10, 0.05, 0.8)...),
		"below the range":   {1e-12, 3e-11, 0x1p-33, 0x1p-32, 1e-9, 0.5},
		"above the range":   {1, 0x1p32, 5e9, 1e12, math.MaxFloat64, math.Inf(1)},
		"both ends":         {0, 1e-300, 0.02, 0.04, 1e20, 1e300},
		"octave edges":      {0.25, 0.5, 1, 2, 4, 0.5 - 0x1p-54, 1 - 0x1p-53, 2 + 0x1p-51},
		"log-normal tail":   lognormal(100000, 0.05, 2.5),
		"heavy paper mix":   lognormal(20000, 1.2, 0.8),
		"uniform (0, 1]":    nil,
		"descending stream": nil,
	}
	for i := 1; i <= 10000; i++ {
		cases["uniform (0, 1]"] = append(cases["uniform (0, 1]"], float64(i)/10000)
	}
	for i := 5000; i > 0; i-- {
		cases["descending stream"] = append(cases["descending stream"], float64(i)*1e-3)
	}
	for n := 1; n <= 100000; n = n*3/2 + 1 {
		cases[fmt.Sprintf("log-normal n=%d", n)] = lognormal(n, 0.2, 1.1)
	}
	for name, vs := range cases {
		t.Run(name, func(t *testing.T) {
			var l LatencyStats
			for _, v := range vs {
				l.Observe(v)
			}
			checkLatencyOracle(t, &l, vs)
			checkWindowSum(t, vs, []int{1, 7, 0, 64, 3})
		})
	}
}

// FuzzLatencyStats feeds fuzzed non-negative floats (eight bytes each)
// through the histogram and checks it against the sorted-sample oracle,
// and its window sum (window sizes from the first bytes) against the
// whole stream.
func FuzzLatencyStats(f *testing.F) {
	f.Add([]byte{3, 1, 0}, []byte{})
	seed := []byte{}
	for _, v := range []float64{0.01, 0.02, 0, 1e-40, 3e9, 0.75, 0.75, math.Inf(1)} {
		seed = binary.LittleEndian.AppendUint64(seed, math.Float64bits(v))
	}
	f.Add([]byte{2, 0, 5}, seed)
	f.Fuzz(func(t *testing.T, windows, data []byte) {
		var vs []float64
		for ; len(data) >= 8 && len(vs) < 4096; data = data[8:] {
			v := math.Abs(math.Float64frombits(binary.LittleEndian.Uint64(data)))
			if !math.IsNaN(v) {
				vs = append(vs, v)
			}
		}
		var l LatencyStats
		for _, v := range vs {
			l.Observe(v)
		}
		checkLatencyOracle(t, &l, vs)
		sizes := make([]int, len(windows))
		for i, b := range windows {
			sizes[i] = int(b)
		}
		checkWindowSum(t, vs, sizes)
	})
}

// TestLatencyStatsAllocs pins the per-delivery cost: once a histogram
// has seen a range, observing inside it allocates nothing.
func TestLatencyStatsAllocs(t *testing.T) {
	vs := make([]float64, 512)
	rng := rand.New(rand.NewSource(3))
	for i := range vs {
		vs[i] = stats.LogNormal(rng, 0.05, 1.5)
	}
	var l LatencyStats
	for _, v := range vs {
		l.Observe(v)
	}
	if a := testing.AllocsPerRun(50, func() {
		for _, v := range vs {
			l.Observe(v)
		}
	}); a != 0 {
		t.Errorf("warm Observe allocates %v per %d calls, want 0", a, len(vs))
	}
}

// latencySink keeps every delivered payment's flow record, per scheme.
type latencySink map[string][]telemetry.FlowRecord

func (s latencySink) Emit(r *telemetry.FlowRecord) {
	if r.Outcome == telemetry.OutcomeDelivered {
		s[r.Scheme] = append(s[r.Scheme], *r)
	}
}

// TestLatencyPercentilesMonotone runs the latency figure's cells (at
// the figure tests' scale) and the latency-slo and griefing presets (at
// flashsim's preset test size) and requires Min ≤ p50 ≤ p95 ≤ p99 ≤
// Max in every window and the aggregate, each percentile within the
// histogram's error of the exact one recomputed from the run's
// delivered flow records.
func TestLatencyPercentilesMonotone(t *testing.T) {
	type cell struct {
		name, scenario string
		mut            func(*Scenario)
	}
	figure := func(sc *Scenario) { sc.Duration, sc.Rate, sc.Schemes = 8, 6, []string{SchemeFlash} }
	cells := []cell{
		{"latency-slo pw=1", "latency-slo", func(sc *Scenario) { figure(sc); sc.Router.ProbeWorkers = 1 }},
		{"latency-slo pw=2", "latency-slo", func(sc *Scenario) { figure(sc); sc.Router.ProbeWorkers = 2 }},
		{"latency-slo pw=4", "latency-slo", func(sc *Scenario) { figure(sc); sc.Router.ProbeWorkers = 4 }},
		{"griefing none", "griefing", func(sc *Scenario) { figure(sc); sc.GriefFrac = 0 }},
		{"griefing +deadline", "griefing", figure},
		{"griefing -deadline", "griefing", func(sc *Scenario) { figure(sc); sc.Deadline = 0 }},
		{"preset latency-slo", "latency-slo", func(sc *Scenario) { sc.Duration = 10 }},
		{"preset griefing", "griefing", func(sc *Scenario) { sc.Duration = 10 }},
	}
	for _, c := range cells {
		t.Run(c.name, func(t *testing.T) {
			sc, err := NamedScenario(c.scenario, KindRipple, 60)
			if err != nil {
				t.Fatal(err)
			}
			c.mut(&sc)
			sink := latencySink{}
			sc.Seed, sc.Runs, sc.FlowSink = 1, 1, sink
			results, err := Run(sc)
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range results {
				res := &r.Runs[0]
				if !res.LatencyOn {
					t.Fatalf("%s: latency off", r.Scheme)
				}
				series := newWindowSeries(sc.Window, res.Horizon)
				perWindow := make([][]float64, len(res.Windows))
				var all []float64
				for _, rec := range sink[r.Scheme] {
					v := rec.Complete - rec.Arrival
					i := min(int(rec.Complete/series.width), series.last)
					perWindow[i] = append(perWindow[i], v)
					all = append(all, v)
				}
				for i := range res.Windows {
					t.Run(fmt.Sprintf("%s/window %d", r.Scheme, i), func(t *testing.T) {
						checkLatencyOracle(t, &res.Windows[i].Latency, perWindow[i])
					})
				}
				t.Run(r.Scheme+"/aggregate", func(t *testing.T) {
					checkLatencyOracle(t, &res.Latency, all)
				})
			}
		})
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
