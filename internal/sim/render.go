package sim

import (
	"fmt"
	"io"
	"text/tabwriter"

	"repro/internal/event"
)

// WriteDynamicResult renders one scheme's dynamic run — the per-window
// time series, the aggregate row, and the event/fingerprint footer —
// exactly as cmd/flashsim prints it. Sharing the renderer between the
// CLI and the test suite lets the determinism tests pin the CLI-level
// byte contract (same seed ⇒ identical bytes, fingerprint included)
// without shelling out to a built binary.
//
// showThreshold adds the effective-elephant-threshold column and the
// threshold-update footer — the adaptive-threshold view; off, the
// output shape matches the historical fixed-threshold rendering. When a
// control plane drove the run (res.ControlOn), the threshold column is
// joined by per-window mice/elephant success counts classified against
// the threshold in effect during that window, and a control-plane
// footer reports the per-knob decision rollup.
//
// Latency columns (p50/p95/p99 completion latency per window) and the
// deadline-expiry footer appear exactly when the run carried a latency
// model (res.LatencyOn), so latency-free runs render byte-identically
// to the pre-latency engine.
func WriteDynamicResult(out io.Writer, scheme string, res DynamicResult, showThreshold bool) {
	fmt.Fprintf(out, "== %s ==\n", scheme)
	w := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	adaptiveCols := showThreshold && res.ControlOn
	cols := "window\tpayments\tsucc.ratio\tsucc.volume\tprobe msgs\tfee ratio"
	if showThreshold {
		cols += "\teff.thr"
	}
	if adaptiveCols {
		cols += "\tmice ok/tot\teleph ok/tot"
	}
	if res.LatencyOn {
		cols += "\tp50 lat\tp95 lat\tp99 lat"
	}
	fmt.Fprintln(w, cols)
	writeAdaptive := func(m *Metrics) {
		if adaptiveCols {
			fmt.Fprintf(w, "\t%d/%d\t%d/%d",
				m.MiceSuccesses, m.MicePayments,
				m.ElephantSuccesses, m.ElephantPayments)
		}
	}
	writeLat := func(l *LatencyStats) {
		if res.LatencyOn {
			fmt.Fprintf(w, "\t%.3fs\t%.3fs\t%.3fs", l.P50(), l.P95(), l.P99())
		}
	}
	for i := range res.Windows {
		win := &res.Windows[i]
		fmt.Fprintf(w, "[%gs,%gs)\t%d\t%.1f%%\t%.4g\t%d\t%.3f%%",
			win.Start, win.End, win.Metrics.Payments,
			100*win.Metrics.SuccessRatio(), win.Metrics.SuccessVolume,
			win.Metrics.ProbeMessages, 100*win.Metrics.FeeRatio())
		if showThreshold {
			fmt.Fprintf(w, "\t%.4g", win.Threshold)
		}
		writeAdaptive(&win.Adaptive)
		writeLat(&win.Latency)
		fmt.Fprintln(w)
	}
	agg := res.Aggregate
	fmt.Fprintf(w, "aggregate\t%d\t%.1f%%\t%.4g\t%d\t%.3f%%",
		agg.Payments, 100*agg.SuccessRatio(), agg.SuccessVolume,
		agg.ProbeMessages, 100*agg.FeeRatio())
	if showThreshold {
		fmt.Fprintf(w, "\t%.4g", res.FinalThreshold)
	}
	writeAdaptive(&res.Adaptive)
	writeLat(&res.Latency)
	fmt.Fprintln(w)
	w.Flush()
	c := res.EventCounts
	fmt.Fprintf(out, "events: %d arrivals (%d completions), %d open, %d close, %d rebalance, %d demand-shift, %d fee-shift; span aborts %d",
		c[event.PaymentArrival], c[event.PaymentComplete], c[event.ChannelOpen],
		c[event.ChannelClose], c[event.Rebalance], c[event.DemandShift], c[event.FeeShift], res.SpanAborts)
	if showThreshold {
		fmt.Fprintf(out, "; threshold updates %d (final %.4g)", res.ThresholdUpdates, res.FinalThreshold)
	}
	if res.ControlOn {
		fmt.Fprintf(out, "; control decisions %d", res.ControlDecisions)
		for _, st := range res.Controllers {
			fmt.Fprintf(out, " [%s x%d last %.4g]", st.Knob, st.Decisions, st.Last)
		}
	}
	if res.Deadline > 0 {
		fmt.Fprintf(out, "; deadline expiries %d", res.DeadlineExpiries)
	}
	fmt.Fprintf(out, "; fingerprint %016x\n", res.Fingerprint)
}
