package harness

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/event"
	"repro/internal/graph"
	"repro/internal/route"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/topo"
)

const (
	// The span replay covers the first half of the payments, at most
	// maxReplay of them: 10,000 payments are 50,000 or more spans,
	// enough for steady shares and a trace file one can still open.
	maxReplay = 10000
	// pairedReps is how many alternating on/off rep pairs the engine
	// ladder's overhead ratios are the median of.
	pairedReps = 5
	// noopPayments is the prefix of engine-churn the no-op router run
	// replays per batch.
	noopPayments = 40000
)

// flowSink is the harness-owned in-memory telemetry sink of the traced
// engine replay: per payment, the wall time of its routing attempts and
// its class. Records land in a preallocated slice.
type flowSink struct {
	wallUS   []float64
	elephant []bool
}

// Emit implements telemetry.Sink.
func (s *flowSink) Emit(r *telemetry.FlowRecord) {
	s.wallUS = append(s.wallUS, float64(r.WallNS)/1e3)
	s.elephant = append(s.elephant, r.Class == telemetry.ClassElephant)
}

// RunTraced is the traced run: set-up once (its phases are layer
// metrics), the workload replayed observed — through a telemetry sink
// by the engine, through span-recording session decorators by the
// harness — between untraced replays that give the counts and the
// base of the overhead ratios, and the ladder. Its numbers are
// per-layer metrics only; end-to-end metrics come from RunEndToEnd.
func RunTraced(spec Spec, opt Options) (Result, Report, error) {
	if opt.Smoke {
		spec = spec.Smoke()
	}
	rep := Report{Workload: spec.Name, Seed: opt.Seed, Trace: true, Smoke: opt.Smoke, SetupRuns: 1, Env: CurrentEnv()}
	start := time.Now()
	r, in, err := setUp(spec, opt.Seed)
	if err != nil {
		return Result{}, rep, err
	}
	defer r.close()
	rep.SetupS, rep.Phases = time.Since(start).Seconds(), &in.Phases
	rep.InputDigest = fmt.Sprintf("%016x", in.Digest)
	if err := checkInputs(in, opt); err != nil {
		return Result{}, rep, err
	}
	values := map[string]float64{
		"topo.build_s":     in.Phases.TopoBuild,
		"trace.generate_s": in.Phases.TraceGen,
		"testbed.boot_s":   in.Phases.Boot,
	}

	var (
		base repOutcome // an untraced rep
		tr   *tracer
	)
	if rig, ok := r.(*tcpRig); ok {
		base, tr, err = tracedTCP(rig, values)
	} else {
		base, tr, err = tracedSim(in, values)
	}
	if err != nil {
		return Result{}, rep, err
	}
	rep.Reps = 1
	rep.behaviour(spec, opt, base.simulated())
	countMetrics(in, &base, values)
	spanMetrics(in, tr, values)
	if err := writeSpans(opt.OutDir, spec.Name, tr.spans); err != nil {
		return Result{}, rep, err
	}

	ladder(in, values)
	if spec.EngineLadder {
		if err := engineLadder(in, values); err != nil {
			return Result{}, rep, err
		}
	}
	res := Result{Correct: true, Attempted: base.res.Aggregate.Payments, Metrics: named(PerLayer, values)}
	return res, rep, nil
}

// countMetrics derives the count metrics from an untraced rep's public
// results: DynamicResult, core.Flash.Stats and the network counters.
func countMetrics(in *Inputs, o *repOutcome, v map[string]float64) {
	m := o.res.Aggregate
	payments := float64(m.Payments)
	v["pcn.probe_msgs_per_payment"] = float64(m.ProbeMessages) / payments
	v["pcn.commit_msgs_per_payment"] = float64(m.CommitMessages) / payments
	v["core.fee_ratio"] = m.FeeRatio()
	v["bench.bytes_per_payment"] = float64(o.bytes) / payments

	fl := o.flash
	if routed := float64(fl.Mice + fl.Elephants); routed > 0 {
		v["core.table_hit_ratio"] = float64(fl.TableHits) / float64(fl.TableHits+fl.TableMisses)
		v["core.paths_replaced_per_mouse"] = float64(fl.PathsReplaced) / float64(fl.Mice)
		v["core.table_invalidations"] = float64(fl.TableInvalidations)
		v["core.table_evictions"] = float64(fl.TableEvictions)
		v["core.elephant_share"] = float64(fl.Elephants) / routed
	}
	if in.Spec.TCP {
		v["wire.msgs_per_payment"] = float64(o.wireMsgs) / payments
		v["node.network_wait_share"] = o.netWait.Seconds() / o.wall.Seconds()
		return
	}
	v["pcn.holds_per_payment"] = float64(o.holds[0]) / payments
	v["pcn.hold_abort_ratio"] = float64(o.holds[2]) / float64(o.holds[0])
	// TotalDelay sums the wall time of every Route call, so what is left
	// of the rep is the engine's own: heap, pending map, windows, spans.
	v["core.route_mean_us"] = float64(m.TotalDelay.Microseconds()) / payments
	v["core.mice_time_share"] = m.MiceDelay.Seconds() / m.TotalDelay.Seconds()
	v["sim.engine_self_share"] = 1 - m.TotalDelay.Seconds()/o.wall.Seconds()
	events := 0
	for _, c := range o.res.EventCounts {
		events += c
	}
	v["sim.events_per_payment"] = float64(events) / payments
	v["sim.retries_per_payment"] = float64(o.res.EventCounts[event.PaymentArrival])/payments - 1
	v["sim.span_aborts"] = float64(o.res.SpanAborts)
	v["sim.deadline_expiries"] = float64(o.res.DeadlineExpiries)
}

// overhead is how much longer the observed pass b took than the mean
// of the plain passes a1 and a2 that ran before and after it, which
// cancels a drift of the box that is linear over the three.
func overhead(a1, b, a2 time.Duration) float64 {
	return b.Seconds()/((a1+a2).Seconds()/2) - 1
}

// tracedSim observes a simulator workload twice. (B) A harness-driven
// replay of the payment list on a fresh, churn-free network — Begin →
// Route → terminal — plain, through the span-recording session
// decorator, and plain again: where route time goes, and what
// recording costs. It runs first and is the warm-up of (A): the engine
// replay untraced, with the harness's sink attached, and untraced
// again: counts, per-class route-time percentiles and the sink's
// cost. The router cannot be wrapped inside the engine, which
// type-asserts *core.Flash for churn invalidation.
func tracedSim(in *Inputs, v map[string]float64) (repOutcome, *tracer, error) {
	n := min(len(in.Payments)/2, maxReplay)
	tr := newTracer(8 * n)
	var walls [3]time.Duration
	for i, t := range []*tracer{nil, tr, nil} {
		var err error
		if walls[i], err = replay(in, n, t); err != nil {
			return repOutcome{}, nil, err
		}
	}
	v["bench.trace_overhead_frac"] = overhead(walls[0], walls[1], walls[2])

	fs := &flowSink{wallUS: make([]float64, 0, len(in.Payments)), elephant: make([]bool, 0, len(in.Payments))}
	var reps [3]repOutcome
	for i, sink := range []telemetry.Sink{nil, fs, nil} {
		opts := in.engineOptions()
		opts.FlowSink = sink
		var err error
		if reps[i], err = in.runEngine(opts, nil, 0); err != nil {
			return repOutcome{}, nil, fmt.Errorf("%s: engine replay %d: %w", in.Spec.Name, i+1, err)
		}
		if reps[i].res.Fingerprint != reps[0].res.Fingerprint {
			return repOutcome{}, nil, fmt.Errorf("%s: engine replay %d changed the fingerprint", in.Spec.Name, i+1)
		}
	}
	v["telemetry.sink_overhead_frac"] = overhead(reps[0].wall, reps[1].wall, reps[2].wall)
	classPercentiles(fs.wallUS, fs.elephant, v)
	return reps[0], tr, nil
}

// replay routes the first n payments one after another on a fresh
// network, recording spans when tr is non-nil, and returns the loop's
// wall time.
func replay(in *Inputs, n int, tr *tracer) (time.Duration, error) {
	net := in.NewNetwork()
	router, err := in.newRouter()
	if err != nil {
		return 0, err
	}
	runtime.GC()
	start := time.Now()
	for i, p := range in.Payments[:n] {
		pay := noParent
		if tr != nil {
			pay = tr.begin(spanPayment, i, noParent)
		}
		tx, err := net.Begin(p.Sender, p.Receiver, p.Amount)
		if err != nil {
			return 0, fmt.Errorf("%s: replay payment %d: %w", in.Spec.Name, p.ID, err)
		}
		if tr == nil {
			_ = router.Route(tx) // a routing failure is an outcome, not an error
		} else {
			rt := tr.begin(spanRoute, i, pay)
			_ = router.Route(&tracedTx{Tx: tx, tr: tr, payment: i, parent: rt})
			tr.end(rt)
			tr.end(pay)
		}
		if !tx.Finished() {
			return 0, fmt.Errorf("%s: replay payment %d: router left the session unfinished", in.Spec.Name, p.ID)
		}
	}
	return time.Since(start), nil
}

// tracedTCP replays the TCP workload with the tracer on, between two
// untraced reps (after a warm-up that dials the connections): the
// client loop is the harness's own, so spans and per-payment latencies
// come from the very loop the end-to-end run times.
func tracedTCP(r *tcpRig, v map[string]float64) (repOutcome, *tracer, error) {
	in := r.in
	tr := newTracer(16 * len(in.Payments))
	var reps [4]repOutcome
	for i, t := range []*tracer{nil, nil, tr, nil} {
		r.tracer = t
		var err error
		if reps[i], err = r.rep(); err != nil {
			return repOutcome{}, nil, fmt.Errorf("%s: rep %d: %w", in.Spec.Name, i+1, err)
		}
		if a, b := reps[i].simulated(), reps[0].simulated(); a != b {
			return repOutcome{}, nil, fmt.Errorf("%s: rep %d simulated %+v, rep 1 %+v", in.Spec.Name, i+1, a, b)
		}
	}
	r.tracer = nil
	base, traced := reps[1], reps[2]
	v["bench.trace_overhead_frac"] = overhead(base.wall, traced.wall, reps[3].wall)
	v["testbed.payment_p50_us"] = stats.Percentile(traced.latUS, 50)
	v["testbed.payment_p99_us"] = stats.Percentile(traced.latUS, 99)

	routeUS := make([]float64, len(in.Payments))
	elephant := make([]bool, len(in.Payments))
	for _, s := range tr.spans {
		if s.Kind == spanRoute {
			routeUS[s.Payment] = float64(s.End-s.Start) / 1e3
			elephant[s.Payment] = in.Payments[s.Payment].Amount > in.Threshold
		}
	}
	classPercentiles(routeUS, elephant, v)
	if err := nodeLadder(r, v); err != nil {
		return repOutcome{}, nil, err
	}
	return base, tr, nil
}

// classPercentiles reports the median and 95th percentile of route
// time per payment class.
func classPercentiles(us []float64, elephant []bool, v map[string]float64) {
	var mice, big []float64
	for i, t := range us {
		if elephant[i] {
			big = append(big, t)
		} else {
			mice = append(mice, t)
		}
	}
	v["core.mice_route_p50_us"] = stats.Percentile(mice, 50)
	v["core.mice_route_p95_us"] = stats.Percentile(mice, 95)
	v["core.elephant_route_p50_us"] = stats.Percentile(big, 50)
	v["core.elephant_route_p95_us"] = stats.Percentile(big, 95)
}

// spanMetrics turns the recorded spans into shares of route time: the
// Route spans' self time is core's (tables, graph search, LP), their
// children are the session's (pcn in memory, node over TCP). The four
// shares sum to 1 by construction.
func spanMetrics(in *Inputs, tr *tracer, v map[string]float64) {
	sum := summarize(tr.spans)
	route := float64(sum.routeNS())
	layer := "pcn"
	if in.Spec.TCP {
		layer = "node"
	}
	v["core.route_self_share"] = float64(sum.selfNS[spanRoute]) / route
	v[layer+".probe_share"] = float64(sum.selfNS[spanProbe]) / route
	v[layer+".hold_share"] = float64(sum.selfNS[spanHold]) / route
	v[layer+".commit_share"] = float64(sum.selfNS[spanCommit]+sum.selfNS[spanAbort]) / route
	v["pcn.probes_per_payment"] = float64(sum.calls[spanProbe]) / float64(sum.calls[spanPayment])
	v["pcn.hold_fail_ratio"] = float64(sum.failed[spanHold]) / float64(sum.calls[spanHold])
}

// nodeLadder times single protocol round trips on a 3-hop path of the
// running cluster, freshly funded: one PROBE, and one COMMIT followed
// by its CONFIRM.
func nodeLadder(r *tcpRig, v map[string]float64) error {
	if err := r.cluster.FromNetwork(r.in.NewNetwork()); err != nil {
		return err
	}
	var path []topo.NodeID
	for _, p := range r.in.pairs(ladderPairs) {
		if sp := graph.ShortestPath(r.in.Graph, p.Sender, p.Receiver, nil); len(sp) == 4 {
			path = sp
			break
		}
	}
	if path == nil {
		return nil // no 3-hop pair among the payments: the rungs read 0
	}
	sender, receiver := r.cluster.Node(path[0]), path[len(path)-1]
	probe, err := sender.NewSession(receiver, dust)
	if err != nil {
		return err
	}
	var failed error
	ns, _ := timeOps(2000, nil, func(int) {
		if _, err := probe.Probe(path); err != nil {
			failed = err
		}
	})
	v["node.probe_rtt_us"] = ns / 1e3
	ns, _ = timeOps(2000, nil, func(int) {
		s, err := sender.NewSession(receiver, dust)
		if err == nil {
			err = s.Hold(path, dust)
		}
		if err == nil {
			err = s.Commit()
		}
		if err != nil {
			failed = err
		}
	})
	v["node.hold_commit_rtt_us"] = ns / 1e3
	if failed != nil {
		return fmt.Errorf("%s: node ladder: %w", r.in.Spec.Name, failed)
	}
	return nil
}

// abortRouter gives up at once: under it the engine does everything
// but route, so its wall time per event is the cost of the heap, the
// pending map, the windows and the retry schedule alone.
type abortRouter struct{}

func (abortRouter) Name() string { return "abort" }

func (abortRouter) Route(s route.Session) error {
	if err := s.Abort(); err != nil {
		return err
	}
	return route.ErrNoRoute
}

// engineLadder runs the rungs that need engine-churn's inputs: the
// engine under a no-op router, concurrent stations against one, and
// live telemetry (FlowLog ring + Registry) on against off.
func engineLadder(in *Inputs, v map[string]float64) error {
	var perEvent []float64
	for b := 0; b < ladderBatches; b++ {
		o, err := in.runEngine(in.engineOptions(), abortRouter{}, noopPayments)
		if err != nil {
			return fmt.Errorf("%s: no-op router run: %w", in.Spec.Name, err)
		}
		events := 0
		for _, c := range o.res.EventCounts {
			events += c
		}
		perEvent = append(perEvent, float64(o.wall)/float64(events))
	}
	v["sim.noop_event_ns"] = stats.Median(perEvent)

	// Alternate which side runs first, so drift falls on both.
	paired := func(pairs int, other func(*sim.DynamicOptions)) (base, changed float64, err error) {
		var a, b []float64
		for i := 0; i < pairs; i++ {
			for side := 0; side < 2; side++ {
				opts := in.engineOptions()
				tweak := (side == 1) != (i%2 == 1)
				if tweak {
					other(&opts)
				}
				o, err := in.runEngine(opts, nil, 0)
				if err != nil {
					return 0, 0, err
				}
				if tweak {
					b = append(b, o.wall.Seconds())
				} else {
					a = append(a, o.wall.Seconds())
				}
			}
		}
		return stats.Median(a), stats.Median(b), nil
	}
	one, many, err := paired(3, func(o *sim.DynamicOptions) { o.Workers = runtime.NumCPU() })
	if err != nil {
		return fmt.Errorf("%s: concurrent stations: %w", in.Spec.Name, err)
	}
	v["sim.dynamic_workers_speedup"] = one / many
	off, on, err := paired(pairedReps, func(o *sim.DynamicOptions) {
		o.FlowSink = telemetry.NewFlowLog(1024)
		o.Registry = telemetry.NewRegistry()
	})
	if err != nil {
		return fmt.Errorf("%s: live telemetry: %w", in.Spec.Name, err)
	}
	v["telemetry.live_overhead_frac"] = on/off - 1
	return nil
}
