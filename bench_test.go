package flash_test

// The benchmark harness regenerates every table and figure of the
// paper's evaluation. One benchmark per figure; each iteration runs the
// figure's full sweep at reproduction scale and prints the same
// rows/series the paper reports. Run with:
//
//	go test -bench=Fig -benchtime=1x          # every figure once
//	go test -bench=BenchmarkFig6 -benchtime=1x
//	go test -bench=Ablation -benchtime=1x     # design-choice ablations
//
// cmd/experiments runs the identical harness as a CLI, including the
// -full paper-scale mode.

import (
	"fmt"
	"io"
	"math/rand"
	"os"
	"sync/atomic"
	"testing"
	"time"

	flash "repro"
	"repro/internal/control"
	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/graph"
	"repro/internal/pcn"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// benchOptions prints each figure's table once (on the first iteration)
// and silences repeats so -benchtime > 1x still measures cleanly.
func benchOptions(b *testing.B, iter int) exp.Options {
	o := exp.Options{Seed: 1, Out: os.Stdout}
	if iter > 0 {
		devnull, err := os.Open(os.DevNull)
		if err == nil {
			b.Cleanup(func() { devnull.Close() })
		}
		o.Out = discard{}
	}
	return o
}

type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }

// runFig benches one figure-regeneration function.
func runFig(b *testing.B, fig func(exp.Options) error) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		if err := fig(benchOptions(b, i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig3PaymentSizeCDF(b *testing.B)  { runFig(b, exp.Fig3) }
func BenchmarkFig4Recurrence(b *testing.B)      { runFig(b, exp.Fig4) }
func BenchmarkFig6CapacitySweep(b *testing.B)   { runFig(b, exp.Fig6) }
func BenchmarkFig7LoadSweep(b *testing.B)       { runFig(b, exp.Fig7) }
func BenchmarkFig8Probing(b *testing.B)         { runFig(b, exp.Fig8) }
func BenchmarkFig9FeeOptimization(b *testing.B) { runFig(b, exp.Fig9) }
func BenchmarkFig10Threshold(b *testing.B)      { runFig(b, exp.Fig10) }
func BenchmarkFig11MicePaths(b *testing.B)      { runFig(b, exp.Fig11) }
func BenchmarkFig12Testbed50(b *testing.B)      { runFig(b, exp.Fig12) }
func BenchmarkFig13Testbed100(b *testing.B)     { runFig(b, exp.Fig13) }
func BenchmarkHeadlineVolumeGain(b *testing.B)  { runFig(b, exp.Headline) }

// Design-choice ablations (DESIGN.md §5).
func BenchmarkAblationElephantK(b *testing.B)    { runFig(b, exp.AblationElephantK) }
func BenchmarkAblationMiceOrder(b *testing.B)    { runFig(b, exp.AblationMiceOrder) }
func BenchmarkAblationProbeAllK(b *testing.B)    { runFig(b, exp.AblationProbeAllK) }
func BenchmarkAblationMaxFlowBound(b *testing.B) { runFig(b, exp.AblationMaxFlowBound) }

// --- Micro-benchmarks of the routing hot paths ---

// benchNetwork builds a funded Ripple-like network once per benchmark.
func benchNetwork(b *testing.B, nodes int) (*flash.Network, []trace.Payment, float64) {
	b.Helper()
	net, err := flash.BuildNetwork("ripple", nodes, 10, 1)
	if err != nil {
		b.Fatal(err)
	}
	cfg := flash.DefaultTraceConfig(nodes)
	cfg.Graph = net.Graph()
	gen, err := flash.NewTraceGenerator(cfg)
	if err != nil {
		b.Fatal(err)
	}
	payments := gen.Generate(4096)
	threshold := flash.ThresholdForMiceFraction(trace.Amounts(payments), 0.9)
	return net, payments, threshold
}

// BenchmarkElephantRouting measures one elephant payment end to end
// (Algorithm 1 probing + LP split + atomic commit) on a 1,870-node
// network.
func BenchmarkElephantRouting(b *testing.B) {
	net, payments, _ := benchNetwork(b, 1870)
	router := core.New(core.DefaultConfig(0)) // everything elephant
	snap := net.Snapshot()
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := payments[rng.Intn(len(payments))]
		if p.Sender == p.Receiver {
			continue
		}
		tx, err := net.Begin(p.Sender, p.Receiver, p.Amount)
		if err != nil {
			b.Fatal(err)
		}
		router.Route(tx) //nolint:errcheck // failures are part of the workload
		if i%256 == 255 {
			b.StopTimer()
			net.Restore(snap)
			b.StartTimer()
		}
	}
}

// BenchmarkMiceRouting measures one mouse payment (routing-table lookup
// + trial-and-error) on a 1,870-node network.
func BenchmarkMiceRouting(b *testing.B) {
	net, payments, _ := benchNetwork(b, 1870)
	cfg := core.DefaultConfig(1e18) // everything mice
	router := core.New(cfg)
	snap := net.Snapshot()
	rng := rand.New(rand.NewSource(2))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := payments[rng.Intn(len(payments))]
		if p.Sender == p.Receiver {
			continue
		}
		tx, err := net.Begin(p.Sender, p.Receiver, p.Amount)
		if err != nil {
			b.Fatal(err)
		}
		router.Route(tx) //nolint:errcheck
		if i%256 == 255 {
			b.StopTimer()
			net.Restore(snap)
			b.StartTimer()
		}
	}
}

// BenchmarkProbe measures one path probe on the in-memory substrate.
func BenchmarkProbe(b *testing.B) {
	net, _, _ := benchNetwork(b, 1870)
	g := net.Graph()
	path := graph.ShortestPath(g, 0, flash.NodeID(g.NumNodes()-1), nil)
	if path == nil {
		b.Skip("no path in generated topology")
	}
	tx, err := net.Begin(path[0], path[len(path)-1], 1)
	if err != nil {
		b.Fatal(err)
	}
	defer tx.Abort() //nolint:errcheck
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tx.Probe(path); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHoldCommit measures the two-phase commit of a single-path
// payment on the in-memory substrate.
func BenchmarkHoldCommit(b *testing.B) {
	net, _, _ := benchNetwork(b, 200)
	g := net.Graph()
	path := graph.ShortestPath(g, 0, flash.NodeID(g.NumNodes()-1), nil)
	if path == nil {
		b.Skip("no path in generated topology")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tx, err := net.Begin(path[0], path[len(path)-1], 0.001)
		if err != nil {
			b.Fatal(err)
		}
		if err := tx.Hold(path, 0.001); err != nil {
			b.Fatal(err)
		}
		if err := tx.Abort(); err != nil { // abort keeps balances steady across iterations
			b.Fatal(err)
		}
	}
}

// rttSession wraps a payment session with a simulated per-probe
// network round trip, the latency Algorithm 1's k sequential probes
// actually pay in a deployed PCN (the in-memory substrate answers
// probes in nanoseconds, which would hide exactly the cost the
// speculative pipeline attacks). It advertises parallel-probe support,
// so Flash's probe pool can overlap the round trips.
type rttSession struct {
	*pcn.Tx
	rtt    time.Duration
	probes atomic.Int64
}

func (s *rttSession) Probe(path []flash.NodeID) ([]pcn.HopInfo, error) {
	s.probes.Add(1)
	time.Sleep(s.rtt)
	return s.Tx.Probe(path)
}

// SupportsParallelProbe implements route.ParallelProber: the underlying
// Tx allows concurrent probes, and the simulated round trips are
// independent sleeps.
func (s *rttSession) SupportsParallelProbe() bool { return true }

// buildFanNetwork returns a sender→receiver fan with `paths`
// edge-disjoint 2-hop routes of the given per-direction capacity — the
// multi-path fixture where elephant routing genuinely needs many
// candidate paths.
func buildFanNetwork(b *testing.B, paths int, capacity float64) (*flash.Network, flash.NodeID, flash.NodeID) {
	b.Helper()
	g := flash.NewGraph(paths + 2)
	s, d := flash.NodeID(0), flash.NodeID(1)
	for i := 0; i < paths; i++ {
		mid := flash.NodeID(2 + i)
		g.MustAddChannel(s, mid)
		g.MustAddChannel(mid, d)
	}
	net := flash.NewNetwork(g)
	for _, e := range g.Channels() {
		if err := net.SetBalance(e.A, e.B, capacity, capacity); err != nil {
			b.Fatal(err)
		}
	}
	return net, s, d
}

// BenchmarkParallelProbe measures per-payment elephant routing latency
// and probe throughput under a simulated 200µs probe round trip, at
// probe pool widths 1, 2 and 4, on a 16-path fan whose demand needs
// ~12 paths. ns/op is the per-payment latency; the probes/sec metric
// is the probing throughput the pool sustains. workers=1 is the
// sequential Algorithm 1 loop (k round trips, one at a time); wider
// pools overlap the round trips, so latency should fall roughly with
// the pool width until the path budget rounds out. Recorded by the CI
// bench step into BENCH_*.json — this is the perf trajectory series
// for elephant probing.
func BenchmarkParallelProbe(b *testing.B) {
	const (
		paths    = 16
		capacity = 100.0
		demand   = 1150.0 // needs 12 of the 16 paths
		rtt      = 200 * time.Microsecond
	)
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			net, s, d := buildFanNetwork(b, paths, capacity)
			snap := net.Snapshot()
			cfg := flash.DefaultConfig(0) // everything is an elephant
			cfg.ProbeWorkers = workers
			cfg.Seed = 1
			router := flash.NewFlash(cfg)
			probes := int64(0)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				if err := net.Restore(snap); err != nil {
					b.Fatal(err)
				}
				tx, err := net.Begin(s, d, demand)
				if err != nil {
					b.Fatal(err)
				}
				sess := &rttSession{Tx: tx, rtt: rtt}
				b.StartTimer()
				if err := router.Route(sess); err != nil {
					b.Fatal(err)
				}
				probes += sess.probes.Load()
			}
			b.ReportMetric(float64(probes)/b.Elapsed().Seconds(), "probes/sec")
		})
	}
}

// BenchmarkDynamicEngine measures the discrete-event engine's
// throughput in events per second at 10k and 100k payments: Poisson
// arrivals with light churn over a 200-node Ripple-like network,
// routed by ShortestPath so the event machinery — heap, virtual clock,
// lazy stream, churn application, window accounting — dominates over
// routing cost. The service=0 cells run the atomic-at-dispatch path;
// the service>0 cells run the hold-span split (suspended sessions,
// Resume at the commit event) with thousands of overlapping holds, so
// their delta is the price of deterministic contention. This is the
// trajectory benchmark for the dynamic subsystem; run with
// -benchtime=1x for a smoke reading.
func BenchmarkDynamicEngine(b *testing.B) {
	for _, payments := range []int{10000, 100000} {
		for _, service := range []float64{0, 0.05} {
			b.Run(fmt.Sprintf("payments=%d/service=%v", payments, service), func(b *testing.B) {
				const rate = 1000 // arrivals per virtual second
				sc := sim.DynamicScenario{
					Name:           "bench",
					Kind:           "ripple",
					Nodes:          200,
					ScaleFactor:    10,
					Duration:       float64(payments) / rate,
					Rate:           rate,
					ChurnRate:      1,
					RebalanceRate:  1,
					Schemes:        []string{flash.SchemeShortestPath},
					DynamicOptions: sim.DynamicOptions{Seed: 1, Service: service},
				}
				b.ReportAllocs()
				b.ResetTimer()
				totalEvents := 0
				for i := 0; i < b.N; i++ {
					results, err := sim.RunDynamicScenario(sc)
					if err != nil {
						b.Fatal(err)
					}
					for _, c := range results[0].Result.EventCounts {
						totalEvents += c
					}
				}
				b.ReportMetric(float64(totalEvents)/b.Elapsed().Seconds(), "events/sec")
			})
		}
	}

	// Scale axis: the snapshot-scale configuration — Flash routing over
	// Ripple-like graphs of 1k/10k/100k nodes with light churn and
	// LRU-bounded routing tables. The 10k cell is the scale benchmark's
	// reference point (BENCH_scale.json in CI); the 100k cell runs the
	// same 10,000 payments — about 10 s an iteration on a 2-vCPU box
	// since route discovery became goal-directed — and also guards peak
	// memory (CSR adjacency + flat probe state + bounded tables keep a
	// 100k-node run within single-digit-GB RSS).
	for _, nodes := range []int{1000, 10000, 100000} {
		const rate, payments = 1000, 10000
		b.Run(fmt.Sprintf("nodes=%d", nodes), func(b *testing.B) {
			sc := sim.DynamicScenario{
				Name:           "bench-scale",
				Kind:           "ripple",
				Nodes:          nodes,
				ScaleFactor:    10,
				Duration:       float64(payments) / rate,
				Rate:           rate,
				ChurnRate:      1,
				RebalanceRate:  1,
				Schemes:        []string{flash.SchemeFlash},
				Router:         sim.RouterSpec{TableCap: 4096},
				DynamicOptions: sim.DynamicOptions{Seed: 1},
			}
			b.ReportAllocs()
			b.ResetTimer()
			totalEvents := 0
			for i := 0; i < b.N; i++ {
				results, err := sim.RunDynamicScenario(sc)
				if err != nil {
					b.Fatal(err)
				}
				for _, c := range results[0].Result.EventCounts {
					totalEvents += c
				}
			}
			b.ReportMetric(float64(totalEvents)/b.Elapsed().Seconds(), "events/sec")
		})
	}
}

// BenchmarkControlPlane measures the adaptive control plane on the
// 10k-payment dynamic demand-drift cell. control=off is the
// feature-off guard: the plane resolves to nil and the arrival path
// adds only a nil check, so it must show no measurable regression.
// control=ewma runs the EWMA-smoothed global threshold alone — one
// estimator update per arrival plus one confidence-gated observe pass
// per window. control=full adds the
// per-sender estimator shards and the probe-width policy: per arrival
// the amount feeds both the global and the sender's estimator, and
// each window's observe pass walks every tracked sender. The
// events/sec deltas also fold in the *intended* routing-mix changes
// (re-calibrated thresholds route the post-shift top decile through
// the elephant algorithm), so cross-cell comparisons read policy cost
// plus policy effect. Recorded by the CI bench step into
// BENCH_control.json.
func BenchmarkControlPlane(b *testing.B) {
	const rate = 500 // arrivals per virtual second
	cells := []struct {
		name   string
		policy string
	}{
		{"control=off", ""},
		{"control=ewma", "ewma"},
		{"control=full", "ewma,sender,width"},
	}
	for _, cell := range cells {
		b.Run(cell.name, func(b *testing.B) {
			sc := sim.DynamicScenario{
				Name:              "bench",
				Kind:              "ripple",
				Nodes:             150,
				ScaleFactor:       2,
				Duration:          10000.0 / rate,
				Rate:              rate,
				DemandShiftFactor: 0.25,
				DemandShiftFrac:   0.5,
				Schemes:           []string{flash.SchemeFlash},
				DynamicOptions:    sim.DynamicOptions{Seed: 1},
			}
			if cell.policy != "" {
				policy, err := control.ParsePolicy(cell.policy)
				if err != nil {
					b.Fatal(err)
				}
				sc.Control = &policy
			}
			b.ReportAllocs()
			b.ResetTimer()
			totalEvents := 0
			for i := 0; i < b.N; i++ {
				results, err := sim.RunDynamicScenario(sc)
				if err != nil {
					b.Fatal(err)
				}
				for _, c := range results[0].Result.EventCounts {
					totalEvents += c
				}
			}
			b.ReportMetric(float64(totalEvents)/b.Elapsed().Seconds(), "events/sec")
		})
	}
}

// BenchmarkTelemetry measures the observability tax on the dynamic
// engine's 10k-payment reference cell. sink=off is the bare engine
// (telemetry compiled in but disabled — the nil-sink fast path);
// sink=live attaches what a running daemon serves (per-payment flow
// records into the /flows ring plus every registry rollup behind
// /metrics) — the events/sec delta of this cell is the live telemetry
// overhead, with an acceptance bar of <5%; sink=jsonl adds the full
// JSONL file export on top, whose per-record JSON text encoding is the
// dominating extra cost (it runs on the sink's background writer
// goroutine, so on multi-core hosts it overlaps the engine).
// Recorded by the CI bench step into BENCH_telemetry.json.
func BenchmarkTelemetry(b *testing.B) {
	const rate = 1000 // arrivals per virtual second
	base := sim.DynamicScenario{
		Name:           "bench",
		Kind:           "ripple",
		Nodes:          200,
		ScaleFactor:    10,
		Duration:       10000.0 / rate,
		Rate:           rate,
		ChurnRate:      1,
		RebalanceRate:  1,
		Schemes:        []string{flash.SchemeShortestPath},
		DynamicOptions: sim.DynamicOptions{Seed: 1},
	}
	for _, mode := range []string{"off", "live", "jsonl"} {
		b.Run("sink="+mode, func(b *testing.B) {
			sc := base
			var jsonl *telemetry.JSONLSink
			switch mode {
			case "live":
				sc.FlowSink = telemetry.NewFlowLog(1024)
				sc.Registry = telemetry.NewRegistry()
			case "jsonl":
				jsonl = telemetry.NewJSONLSink(io.Discard)
				sc.FlowSink = telemetry.MultiSink{telemetry.NewFlowLog(1024), jsonl}
				sc.Registry = telemetry.NewRegistry()
			}
			b.ReportAllocs()
			b.ResetTimer()
			totalEvents := 0
			for i := 0; i < b.N; i++ {
				results, err := sim.RunDynamicScenario(sc)
				if err != nil {
					b.Fatal(err)
				}
				for _, c := range results[0].Result.EventCounts {
					totalEvents += c
				}
			}
			b.ReportMetric(float64(totalEvents)/b.Elapsed().Seconds(), "events/sec")
			b.StopTimer()
			if jsonl != nil {
				if err := jsonl.Close(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkLatencyModel measures the virtual-latency model on the
// 10k-payment dynamic reference cell (hold spans on, so all three
// cells run the same span machinery). model=off is the feature-off
// guard: with no RTTs assigned every latency term is an exact zero
// and the charging code reduces to one atomic flag read, so this cell
// must show no regression against the pre-latency engine.
// model=latency assigns seeded log-normal per-channel RTTs and
// charges every probe, COMMIT and settle leg in virtual time;
// model=latency+deadline additionally schedules an HTLC expiry for
// every span that cannot settle inside the deadline (the 0.1s
// deadline against a 0.05s mean service time expires ~13% of spans,
// so the expiry path is genuinely exercised). Recorded by the CI
// bench step into BENCH_latency.json.
func BenchmarkLatencyModel(b *testing.B) {
	const rate = 1000 // arrivals per virtual second
	base := sim.DynamicScenario{
		Name:           "bench",
		Kind:           "ripple",
		Nodes:          200,
		ScaleFactor:    10,
		Duration:       10000.0 / rate,
		Rate:           rate,
		ChurnRate:      1,
		RebalanceRate:  1,
		Schemes:        []string{flash.SchemeShortestPath},
		DynamicOptions: sim.DynamicOptions{Seed: 1, Service: 0.05},
	}
	for _, mode := range []string{"off", "latency", "latency+deadline"} {
		b.Run("model="+mode, func(b *testing.B) {
			sc := base
			switch mode {
			case "latency":
				sc.LatencyMedian, sc.LatencySigma = 0.02, 0.8
			case "latency+deadline":
				sc.LatencyMedian, sc.LatencySigma = 0.02, 0.8
				sc.Deadline = 0.1
			}
			b.ReportAllocs()
			b.ResetTimer()
			totalEvents := 0
			for i := 0; i < b.N; i++ {
				results, err := sim.RunDynamicScenario(sc)
				if err != nil {
					b.Fatal(err)
				}
				for _, c := range results[0].Result.EventCounts {
					totalEvents += c
				}
			}
			b.ReportMetric(float64(totalEvents)/b.Elapsed().Seconds(), "events/sec")
		})
	}
}

// BenchmarkFullSimulation2000 measures a complete 2000-payment Flash
// simulation run — the unit of every figure sweep.
func BenchmarkFullSimulation2000(b *testing.B) {
	net, payments, threshold := benchNetwork(b, 500)
	snap := net.Snapshot()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		net.Restore(snap)
		router := core.New(core.DefaultConfig(threshold))
		b.StartTimer()
		if _, err := flash.RunSimulation(net, router, payments[:2000], threshold); err != nil {
			b.Fatal(err)
		}
	}
}
