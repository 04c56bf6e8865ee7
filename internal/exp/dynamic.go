package exp

import (
	"fmt"
	"strings"

	"repro/internal/event"
	"repro/internal/sim"
)

// dynamicDuration returns the simulated horizon and arrival rate per
// scale.
func (o Options) dynamicShape() (duration, rate float64) {
	if o.Full {
		return 120, 20
	}
	if o.Tiny {
		return 8, 6
	}
	return 30, 15
}

// Dynamic runs the dynamic-scenario catalogue — steady-state,
// flash-crowd, channel-depletion-with-rebalance, churn, contention,
// hub-failure, demand-drift and fee-war — over the Ripple-like
// topology and reports, per scheme, the aggregate success ratio and
// volume plus the worst and best time-series window, the time-resolved
// view no static figure can show. The adaptive-threshold column shows
// the number of control decisions and the final effective threshold
// for Flash in cells a control policy drives ("-" for fixed-threshold
// cells). Scenario cells are independent and run on the
// Options.Workers pool; output order is fixed and, like every figure,
// deterministic in the seed.
func Dynamic(o Options) error {
	o.header("Dynamic scenarios", "discrete-event engine: arrivals, churn, rebalancing")
	duration, rate := o.dynamicShape()
	schemes := []string{sim.SchemeFlash, sim.SchemeSpider, sim.SchemeShortestPath}

	names := sim.DynamicScenarioNames
	w := o.table("scenario\tscheme\tsucc.ratio\tsucc.volume\twindow min..max\tchurn(open/close/rebal)\tadaptive thr\tp95 lat")
	rows, err := o.runCells(len(names), func(i int) (string, error) {
		sc, err := sim.NamedDynamicScenario(names[i], o.kindFor(sim.KindRipple), o.rippleNodes())
		if err != nil {
			return "", err
		}
		sc.Duration = duration
		sc.Rate = rate
		sc.Schemes = schemes
		sc.Router.ProbeWorkers = o.ProbeWorkers
		if o.Control != nil {
			sc.Control = o.Control
		}
		sc.Seed = o.seed()
		results, err := sim.RunDynamicScenario(sc)
		if err != nil {
			return "", fmt.Errorf("%s: %w", names[i], err)
		}
		var b strings.Builder
		for _, r := range results {
			agg := r.Result.Aggregate
			lo, hi := windowRange(r.Result)
			c := r.Result.EventCounts
			thr := "-"
			if r.Result.ControlOn && r.Scheme == sim.SchemeFlash {
				thr = fmt.Sprintf("%d dec, final %.4g", r.Result.ControlDecisions, r.Result.FinalThreshold)
			}
			lat := "-"
			if r.Result.LatencyOn {
				lat = fmt.Sprintf("%.2fs", r.Result.Latency.P95())
			}
			fmt.Fprintf(&b, "%s\t%s\t%.1f%%\t%.4g\t%.0f%%..%.0f%%\t%d/%d/%d\t%s\t%s\n",
				names[i], r.Scheme, 100*agg.SuccessRatio(), agg.SuccessVolume,
				100*lo, 100*hi,
				c[event.ChannelOpen], c[event.ChannelClose], c[event.Rebalance], thr, lat)
		}
		return b.String(), nil
	})
	if err != nil {
		return err
	}
	for _, row := range rows {
		fmt.Fprint(w, row)
	}
	return w.Flush()
}

// Latency runs the latency-model cells. The probe-width sweep drives
// the latency-slo scenario at ProbeWorkers 1/2/4: the speculative
// probe pipeline charges each concurrent round only its slowest
// candidate (Σ−max credited back), so wider pools compress the
// completion-latency percentiles a probe-heavy scheme pays. The
// griefing triplet shows the deadline as the defence: no attack,
// the attack with the catalogue's HTLC deadline (griefer spans expire,
// honest traffic recovers), and the attack with expiry disabled (the
// griefed holds pin the bridge liquidity unchallenged).
func Latency(o Options) error {
	o.header("Latency model", "virtual per-hop RTTs, HTLC deadlines, completion-latency percentiles")
	duration, rate := o.dynamicShape()

	type cell struct {
		label    string
		scenario string
		mut      func(*sim.DynamicScenario)
	}
	cells := []cell{
		{"latency-slo pw=1", "latency-slo", func(sc *sim.DynamicScenario) { sc.Router.ProbeWorkers = 1 }},
		{"latency-slo pw=2", "latency-slo", func(sc *sim.DynamicScenario) { sc.Router.ProbeWorkers = 2 }},
		{"latency-slo pw=4", "latency-slo", func(sc *sim.DynamicScenario) { sc.Router.ProbeWorkers = 4 }},
		{"griefing none", "griefing", func(sc *sim.DynamicScenario) { sc.GriefFrac = 0 }},
		{"griefing +deadline", "griefing", func(sc *sim.DynamicScenario) {}},
		{"griefing -deadline", "griefing", func(sc *sim.DynamicScenario) { sc.Deadline = 0 }},
	}
	w := o.table("cell\tscheme\tsucc.ratio\tp50 lat\tp95 lat\tp99 lat\texpiries")
	rows, err := o.runCells(len(cells), func(i int) (string, error) {
		sc, err := sim.NamedDynamicScenario(cells[i].scenario, o.kindFor(sim.KindRipple), o.rippleNodes())
		if err != nil {
			return "", err
		}
		sc.Duration = duration
		sc.Rate = rate
		sc.Schemes = []string{sim.SchemeFlash}
		sc.Seed = o.seed()
		cells[i].mut(&sc)
		results, err := sim.RunDynamicScenario(sc)
		if err != nil {
			return "", fmt.Errorf("%s: %w", cells[i].label, err)
		}
		var b strings.Builder
		for _, r := range results {
			l := &r.Result.Latency
			fmt.Fprintf(&b, "%s\t%s\t%.1f%%\t%.3fs\t%.3fs\t%.3fs\t%d\n",
				cells[i].label, r.Scheme, 100*r.Result.Aggregate.SuccessRatio(),
				l.P50(), l.P95(), l.P99(), r.Result.DeadlineExpiries)
		}
		return b.String(), nil
	})
	if err != nil {
		return err
	}
	for _, row := range rows {
		fmt.Fprint(w, row)
	}
	return w.Flush()
}

// windowRange returns the lowest and highest per-window success ratio
// among windows that saw payments.
func windowRange(res sim.DynamicResult) (lo, hi float64) {
	lo, hi = 1, 0
	seen := false
	for _, win := range res.Windows {
		if win.Metrics.Payments == 0 {
			continue
		}
		seen = true
		r := win.Metrics.SuccessRatio()
		if r < lo {
			lo = r
		}
		if r > hi {
			hi = r
		}
	}
	if !seen {
		return 0, 0
	}
	return lo, hi
}
