package exp

import (
	"fmt"
	"strings"

	"repro/internal/sim"
)

// ablations runs the design-choice experiments beyond the paper's own
// figures: the elephant path budget k, the mice path order, the
// Algorithm-1 early-exit reading, and the distance to the full-probe
// max-flow upper bound.
func ablations(o Options) error {
	for _, run := range []func(Options) error{ablationElephantK, ablationMiceOrder, ablationProbeAllK, ablationMaxFlowBound} {
		if err := run(o); err != nil {
			return err
		}
	}
	return nil
}

// ablationElephantK sweeps the elephant path budget k. The paper
// recommends k between 20 and 30 (§3.2); the sweep shows the success
// volume saturating there while probing keeps climbing.
func ablationElephantK(o Options) error {
	var cells []cell
	for _, k := range []int{1, 5, 10, 20, 30, 40} {
		cells = append(cells, cell{fmt.Sprint(k), func(sc *sim.Scenario) { sc.Router.K = k }})
	}
	return sweep{fig: "Ablation", title: "elephant path budget k (paper recommends 20–30)",
		kinds: rippleOnly, schemes: []string{sim.SchemeFlash},
		cols: "k\tsucc.volume\tsucc.ratio\telephant probe msgs", cells: cells,
		row: func(_, label string, rs []sim.SchemeResult) string {
			eProbes := rs[0].Mean(func(m sim.Metrics) float64 { return float64(m.ElephantProbeMsgs) })
			return fmt.Sprintf("%s\t%.4g\t%.1f%%\t%.0f\n",
				label, volumeOf(rs[0]), 100*rs[0].Mean(sim.Metrics.SuccessRatio), eProbes)
		}}.run(o)
}

// ablationMiceOrder compares random against fixed (shortest-first) mice
// path order. The paper argues random order load-balances the cached
// paths (§3.3).
func ablationMiceOrder(o Options) error {
	return sweep{fig: "Ablation", title: "mice path order: random (paper) vs fixed shortest-first",
		kinds: rippleOnly, schemes: []string{sim.SchemeFlash},
		cols:  "order\tsucc.volume\tsucc.ratio\tmice probe msgs",
		cells: []cell{{"random", nil}, {"fixed", func(sc *sim.Scenario) { sc.Router.FixedMiceOrder = true }}},
		row: func(_, label string, rs []sim.SchemeResult) string {
			mProbes := rs[0].Mean(func(m sim.Metrics) float64 { return float64(m.MiceProbeMessages) })
			return fmt.Sprintf("%s\t%.4g\t%.1f%%\t%.0f\n",
				label, volumeOf(rs[0]), 100*rs[0].Mean(sim.Metrics.SuccessRatio), mProbes)
		}}.run(o)
}

// ablationProbeAllK compares the two readings of Algorithm 1's
// termination: early exit once the found flow covers the demand
// (default) versus always probing the full k paths, which gives the fee
// LP more slack at a higher probing cost.
func ablationProbeAllK(o Options) error {
	return sweep{fig: "Ablation", title: "Algorithm 1 termination: early exit vs always-k",
		kinds: rippleOnly, schemes: []string{sim.SchemeFlash},
		cols:  "variant\tsucc.volume\tfee ratio\telephant probe msgs",
		cells: []cell{{"early exit (f ≥ d)", nil}, {"always k paths", func(sc *sim.Scenario) { sc.Router.ProbeAllK = true }}},
		row: func(_, label string, rs []sim.SchemeResult) string {
			eProbes := rs[0].Mean(func(m sim.Metrics) float64 { return float64(m.ElephantProbeMsgs) })
			return fmt.Sprintf("%s\t%.4g\t%.3f%%\t%.0f\n",
				label, volumeOf(rs[0]), 100*rs[0].Mean(sim.Metrics.FeeRatio), eProbes)
		}}.run(o)
}

// ablationMaxFlowBound measures how close Flash's k-bounded lazy search
// gets to the classic Edmonds–Karp with full network knowledge — the
// strawman the paper's §3.2 dismisses for its probing cost.
func ablationMaxFlowBound(o Options) error {
	return sweep{fig: "Ablation", title: "Flash vs full-probe max-flow upper bound",
		kinds: rippleOnly, schemes: []string{sim.SchemeFlash, sim.SchemeMaxFlow},
		cols: "scheme\tsucc.volume\tsucc.ratio\tprobe msgs", cells: []cell{{}},
		row: func(_, _ string, rs []sim.SchemeResult) string {
			var b strings.Builder
			for _, r := range rs {
				fmt.Fprintf(&b, "%s\t%.4g\t%.1f%%\t%.0f\n",
					r.Scheme, volumeOf(r), 100*r.Mean(sim.Metrics.SuccessRatio), probesOf(r))
			}
			return b.String()
		}}.run(o)
}
