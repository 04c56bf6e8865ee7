package sim

import (
	"repro/internal/control"
	"repro/internal/core"
	"repro/internal/pcn"
	"repro/internal/route"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// dynObserver is the dynamic engine's telemetry tap: per-completion
// registry rollups, the router's and network's counters published at
// every window close and at drain, and flow-record emission. A nil
// observer — the default when neither a sink nor a registry is
// configured — costs the engine a single branch per completion.
type dynObserver struct {
	sink   telemetry.Sink
	scheme string
	reg    *telemetry.Registry
	rec    telemetry.FlowRecord // refilled and emitted per completion

	payments, successes, failures, spanAborts *telemetry.Counter
	expiries                                  *telemetry.Counter
	volume, fees                              *telemetry.Counter
	probeMsgs, commitMsgs                     *telemetry.Counter
	amounts, latency                          *telemetry.Histogram
	clock, threshold                          *telemetry.Gauge
	publish                                   func() // sets the router and network gauges

	// Per-knob control-plane instruments, registered lazily on the
	// first decision touching each knob (a run without a control plane
	// exports no control series at all).
	ctlDecisions [control.NumKnobs]*telemetry.Counter
	ctlLast      [control.NumKnobs]*telemetry.Gauge
}

// newDynObserver builds the tap for r routing over net, registering the
// scheme-labelled instrument set when reg is non-nil. Returns nil when
// there is nothing to observe into.
func newDynObserver(r route.Router, net *pcn.Network, sink telemetry.Sink, reg *telemetry.Registry) *dynObserver {
	if sink == nil && reg == nil {
		return nil
	}
	scheme := r.Name()
	o := &dynObserver{sink: sink, scheme: scheme, reg: reg, publish: func() {}}
	if reg != nil {
		router, network := RegisterRouterMetrics(reg, scheme, r), RegisterNetworkMetrics(reg, scheme, net)
		o.publish = func() { router(); network() }
		lbl := `{scheme="` + scheme + `"}`
		o.payments = reg.Counter("sim_payments_total"+lbl, "Payments completed, all outcomes.")
		o.successes = reg.Counter("sim_payments_delivered_total"+lbl, "Payments fully delivered.")
		o.failures = reg.Counter("sim_payments_failed_total"+lbl, "Payments undelivered after every attempt.")
		o.spanAborts = reg.Counter("sim_span_aborts_total"+lbl, "Payments aborted by churn during a hold span.")
		o.expiries = reg.Counter("sim_deadline_expiries_total"+lbl, "Hold spans expired at their HTLC deadline.")
		o.volume = reg.Counter("sim_success_volume"+lbl, "Delivered payment volume.")
		o.fees = reg.Counter("sim_fees_paid"+lbl, "Total fees paid by delivered payments.")
		o.probeMsgs = reg.Counter("sim_probe_messages_total"+lbl, "Probe messages across all attempts.")
		o.commitMsgs = reg.Counter("sim_commit_messages_total"+lbl, "Commit-phase messages across all attempts.")
		o.amounts = reg.Histogram("sim_payment_amount"+lbl, "Completed payment amounts.", telemetry.ExpBuckets(0.01, 10, 8))
		o.latency = reg.Histogram("sim_completion_latency_seconds"+lbl, "Virtual completion latency (completion − arrival) of every completed payment, delivered or not.", telemetry.ExpBuckets(0.001, 10, 8))
		o.clock = reg.Gauge("sim_virtual_clock_seconds"+lbl, "Virtual time of the latest completion.")
		o.threshold = reg.Gauge("sim_elephant_threshold"+lbl, "Effective elephant classification threshold.")
	}
	return o
}

// completed records one settled payment: registry rollups and, when a
// sink is attached, the flow record. All times are virtual seconds.
func (o *dynObserver) completed(p trace.Payment, miceThreshold float64, t routeOutcome, attempts int, arrival, at float64, spanAborted, expired bool, curThreshold float64) {
	if o.payments != nil {
		o.payments.Inc()
		o.amounts.Observe(p.Amount)
		o.latency.Observe(at - arrival)
		o.probeMsgs.Add(float64(t.probeMsgs))
		o.commitMsgs.Add(float64(t.commitMsgs))
		switch {
		case t.delivered:
			o.successes.Inc()
			o.volume.Add(p.Amount)
			o.fees.Add(t.fees)
		case expired:
			o.expiries.Inc()
		case spanAborted:
			o.spanAborts.Inc()
		default:
			o.failures.Inc()
		}
		o.clock.Set(at)
		o.threshold.Set(curThreshold)
	}
	if o.sink != nil {
		outcome := telemetry.OutcomeFailed
		switch {
		case t.delivered:
			outcome = telemetry.OutcomeDelivered
		case expired:
			outcome = telemetry.OutcomeDeadlineExpired
		case spanAborted:
			outcome = telemetry.OutcomeSpanAbort
		}
		class := telemetry.ClassElephant
		if p.Amount <= miceThreshold {
			class = telemetry.ClassMouse
		}
		// The observer's one record is refilled per completion: every
		// field is a value the engine already computed, and the sink
		// copies what it keeps.
		o.rec = telemetry.FlowRecord{
			ID: int64(p.ID), Scheme: o.scheme, Sender: int64(p.Sender), Receiver: int64(p.Receiver),
			Amount: p.Amount, Class: class, Attempts: attempts, Paths: t.paths, Fees: t.fees,
			ProbeRounds: t.probeOps, ProbeMessages: t.probeMsgs, CommitMessages: t.commitMsgs,
			Arrival: arrival, Complete: at, WallNS: int64(t.elapsed), Outcome: outcome,
			ProbeLatency:  float64(t.probeLatNanos) / 1e9,
			CommitLatency: float64(t.commitLatNanos) / 1e9,
		}
		o.sink.Emit(&o.rec)
	}
}

// decided records one applied control-plane decision: a per-knob
// decision counter and a per-knob last-value gauge, so telemetry
// consumers can correlate knob moves with the window metrics around
// them. Instruments register lazily per knob.
func (o *dynObserver) decided(k control.Knob, eff float64) {
	if o.reg == nil || int(k) >= control.NumKnobs {
		return
	}
	if o.ctlDecisions[k] == nil {
		lbl := `{knob="` + k.String() + `",scheme="` + o.scheme + `"}`
		o.ctlDecisions[k] = o.reg.Counter("sim_control_decisions_total"+lbl, "Applied control-plane decisions for this knob.")
		o.ctlLast[k] = o.reg.Gauge("sim_control_last_value"+lbl, "Last effective value a control decision set this knob to.")
	}
	o.ctlDecisions[k].Inc()
	o.ctlLast[k].Set(eff)
}

// RegisterRouterMetrics registers a router's internal statistics as
// scheme-labelled gauges on reg, sets them, and returns the function
// that sets them again. Only routers with statistics (core.Flash)
// register anything; for any other router it returns a no-op, so
// callers can pass whatever they run. The gauges hold values, not
// callbacks: the goroutine that drives the router calls the returned
// function when a scrape should see newer ones (the engine's observer at
// every window close and at drain), so a scrape from another goroutine
// never reads the router.
func RegisterRouterMetrics(reg *telemetry.Registry, scheme string, r route.Router) func() {
	fl, ok := r.(*core.Flash)
	if !ok {
		return func() {}
	}
	lbl := `{scheme="` + scheme + `"}`
	stats := [...]struct {
		name, help string
		get        func(core.Stats) int64
	}{
		{"elephants_total", "Payments routed by the elephant algorithm.", func(s core.Stats) int64 { return s.Elephants }},
		{"mice_total", "Payments routed by the mice algorithm.", func(s core.Stats) int64 { return s.Mice }},
		{"table_hits_total", "Mice routing-table hits.", func(s core.Stats) int64 { return s.TableHits }},
		{"table_misses_total", "Mice routing-table misses.", func(s core.Stats) int64 { return s.TableMisses }},
		{"table_entries", "Live mice routing-table entries.", func(s core.Stats) int64 { return int64(s.TableEntries) }},
		{"table_invalidations_total", "Routing-table entries invalidated by churn.", func(s core.Stats) int64 { return s.TableInvalidations }},
		{"table_evictions_total", "Routing-table entries evicted by the cap.", func(s core.Stats) int64 { return s.TableEvictions }},
		{"paths_replaced_total", "Mice paths replaced after probe failure.", func(s core.Stats) int64 { return s.PathsReplaced }},
		{"threshold_updates_total", "Adaptive threshold re-calibrations.", func(s core.Stats) int64 { return s.ThresholdUpdates }},
		{"sender_thresholds", "Senders with a live per-sender threshold override.", func(s core.Stats) int64 { return int64(s.SenderThresholds) }},
		{"sender_threshold_updates_total", "Per-sender threshold override moves.", func(s core.Stats) int64 { return s.SenderThresholdUpdates }},
		{"probe_width_updates_total", "Probe-width re-tunes (candidates per elephant round).", func(s core.Stats) int64 { return s.ProbeWidthUpdates }},
		{"fee_program_fallbacks_total", "Elephant splits left to sequential filling because the fee program failed.", func(s core.Stats) int64 { return s.FeeProgramFallbacks }},
	}
	var gauges [len(stats)]*telemetry.Gauge
	for i, st := range stats {
		gauges[i] = reg.Gauge("flash_"+st.name+lbl, st.help)
	}
	threshold := reg.Gauge("flash_threshold"+lbl, "Current elephant classification threshold.")
	width := reg.Gauge("flash_probe_workers"+lbl, "Current probe width: candidates per elephant round, each round charged its slowest probe.")
	publish := func() {
		s := fl.Stats()
		for i, st := range stats {
			gauges[i].Set(float64(st.get(s)))
		}
		threshold.Set(fl.Threshold())
		width.Set(float64(fl.ProbeWorkers()))
	}
	publish()
	return publish
}

// RegisterNetworkMetrics registers a pcn network's cumulative hold
// counters as scheme-labelled gauges on reg, sets them, and returns the
// function that sets them again, on the terms of RegisterRouterMetrics.
func RegisterNetworkMetrics(reg *telemetry.Registry, scheme string, net *pcn.Network) func() {
	lbl := `{scheme="` + scheme + `"}`
	placed := reg.Gauge("pcn_holds_placed_total"+lbl, "Partial-payment holds reserved.")
	committed := reg.Gauge("pcn_holds_committed_total"+lbl, "Holds settled by commit or resume.")
	aborted := reg.Gauge("pcn_holds_aborted_total"+lbl, "Holds released by abort or span abort.")
	publish := func() {
		placed.Set(float64(net.HoldsPlaced()))
		committed.Set(float64(net.HoldsCommitted()))
		aborted.Set(float64(net.HoldsAborted()))
	}
	publish()
	return publish
}
