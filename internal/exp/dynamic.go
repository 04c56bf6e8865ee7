package exp

import (
	"fmt"
	"strings"

	"repro/internal/event"
	"repro/internal/sim"
)

// dynamicCell returns a catalogue scenario over the Ripple topology at
// the dynamic figures' horizon and arrival rate, for schemes.
func (o Options) dynamicCell(name string, schemes ...string) (sim.Scenario, error) {
	sc, err := sim.NamedScenario(name, o.kindFor(sim.KindRipple), o.rippleNodes())
	sc.Duration, sc.Rate = 120, 20
	if o.Tiny {
		sc.Duration, sc.Rate = 8, 6
	}
	sc.Schemes = schemes
	sc.Seed = o.seed()
	return sc, err
}

// dynamic runs the dynamic-scenario catalogue — steady-state,
// flash-crowd, channel-depletion-with-rebalance, churn, contention,
// hub-failure, demand-drift and fee-war — over the Ripple-like
// topology and reports, per scheme, the aggregate success ratio and
// volume plus the worst and best time-series window, the time-resolved
// view no static figure can show. The adaptive-threshold column shows
// the number of control decisions and the final effective threshold
// for Flash in the one cell whose preset runs a control policy,
// demand-drift ("-" for fixed-threshold cells). Scenario cells are
// independent and run on one pool; output order is fixed and, like
// every figure, deterministic in the seed.
func dynamic(o Options) error {
	o.header("Dynamic scenarios", "discrete-event engine: arrivals, churn, rebalancing")
	names := sim.ScenarioNames
	rows, err := runCells(len(names), func(i int) (string, error) {
		sc, err := o.dynamicCell(names[i], sim.SchemeFlash, sim.SchemeSpider, sim.SchemeShortestPath)
		if err != nil {
			return "", err
		}
		results, err := sim.Run(sc)
		if err != nil {
			return "", fmt.Errorf("%s: %w", names[i], err)
		}
		var b strings.Builder
		for _, r := range results {
			res := r.Runs[0]
			agg := res.Aggregate
			lo, hi := windowRange(res)
			c := res.EventCounts
			thr := "-"
			if res.ControlOn && r.Scheme == sim.SchemeFlash {
				thr = fmt.Sprintf("%d dec, final %.4g", res.ControlDecisions, res.FinalThreshold)
			}
			lat := "-"
			if res.LatencyOn {
				lat = fmt.Sprintf("%.2fs", res.Latency.P95())
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
	return o.tabulate("scenario\tscheme\tsucc.ratio\tsucc.volume\twindow min..max\tchurn(open/close/rebal)\tadaptive thr\tp95 lat", rows)
}

// latency runs the latency-model cells. The probe-width sweep drives
// the latency-slo scenario at ProbeWorkers 1/2/4: the speculative
// probe pipeline charges each concurrent round only its slowest
// candidate (Σ−max credited back), so wider pools compress the
// completion-latency percentiles a probe-heavy scheme pays. The
// griefing triplet shows the deadline as the defence: no attack,
// the attack with the catalogue's HTLC deadline (griefer spans expire,
// honest traffic recovers), and the attack with expiry disabled (the
// griefed holds pin the bridge liquidity unchallenged).
func latency(o Options) error {
	o.header("Latency model", "virtual per-hop RTTs, HTLC deadlines, completion-latency percentiles")
	type cell struct {
		label    string
		scenario string
		mut      func(*sim.Scenario)
	}
	cells := []cell{
		{"latency-slo pw=1", "latency-slo", func(sc *sim.Scenario) { sc.Router.ProbeWorkers = 1 }},
		{"latency-slo pw=2", "latency-slo", func(sc *sim.Scenario) { sc.Router.ProbeWorkers = 2 }},
		{"latency-slo pw=4", "latency-slo", func(sc *sim.Scenario) { sc.Router.ProbeWorkers = 4 }},
		{"griefing none", "griefing", func(sc *sim.Scenario) { sc.GriefFrac = 0 }},
		{"griefing +deadline", "griefing", func(sc *sim.Scenario) {}},
		{"griefing -deadline", "griefing", func(sc *sim.Scenario) { sc.Deadline = 0 }},
	}
	rows, err := runCells(len(cells), func(i int) (string, error) {
		sc, err := o.dynamicCell(cells[i].scenario, sim.SchemeFlash)
		if err != nil {
			return "", err
		}
		cells[i].mut(&sc)
		results, err := sim.Run(sc)
		if err != nil {
			return "", fmt.Errorf("%s: %w", cells[i].label, err)
		}
		var b strings.Builder
		for _, r := range results {
			res := &r.Runs[0]
			l := &res.Latency
			fmt.Fprintf(&b, "%s\t%s\t%.1f%%\t%.3fs\t%.3fs\t%.3fs\t%d\n",
				cells[i].label, r.Scheme, 100*res.Aggregate.SuccessRatio(),
				l.P50(), l.P95(), l.P99(), res.DeadlineExpiries)
		}
		return b.String(), nil
	})
	if err != nil {
		return err
	}
	return o.tabulate("cell\tscheme\tsucc.ratio\tp50 lat\tp95 lat\tp99 lat\texpiries", rows)
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
