package exp

import (
	"fmt"

	"repro/internal/sim"
)

// Ablations runs the design-choice experiments DESIGN.md calls out
// beyond the paper's own figures: the elephant path budget k, the mice
// path order, the Algorithm-1 early-exit reading, and the distance to
// the full-probe max-flow upper bound.
func Ablations(o Options) error {
	if err := AblationElephantK(o); err != nil {
		return err
	}
	if err := AblationMiceOrder(o); err != nil {
		return err
	}
	if err := AblationProbeAllK(o); err != nil {
		return err
	}
	return AblationMaxFlowBound(o)
}

// AblationElephantK sweeps the elephant path budget k. The paper
// recommends k between 20 and 30 (§3.2); the sweep shows the success
// volume saturating there while probing keeps climbing.
func AblationElephantK(o Options) error {
	o.header("Ablation", "elephant path budget k (paper recommends 20–30)")
	w := o.table("k\tsucc.volume\tsucc.ratio\telephant probe msgs")
	for _, k := range []int{1, 5, 10, 20, 30, 40} {
		sc := o.scenario(sim.KindRipple, o.rippleNodes())
		sc.Txns = o.txns(sc.Txns)
		sc.Router.K = k
		sc.Runs = o.runs()
		sc.Seed = o.seed()
		sc.Schemes = []string{sim.SchemeFlash}
		results, err := sim.RunScenario(sc)
		if err != nil {
			return err
		}
		r := results[0]
		eProbes := r.Mean(func(m sim.Metrics) float64 { return float64(m.ElephantProbeMsgs) })
		fmt.Fprintf(w, "%d\t%.4g\t%.1f%%\t%.0f\n",
			k, volumeOf(r), 100*r.Mean(sim.Metrics.SuccessRatio), eProbes)
	}
	return w.Flush()
}

// AblationMiceOrder compares random against fixed (shortest-first) mice
// path order. The paper argues random order load-balances the cached
// paths (§3.3).
func AblationMiceOrder(o Options) error {
	o.header("Ablation", "mice path order: random (paper) vs fixed shortest-first")
	w := o.table("order\tsucc.volume\tsucc.ratio\tmice probe msgs")
	for _, fixed := range []bool{false, true} {
		sc := o.scenario(sim.KindRipple, o.rippleNodes())
		sc.Txns = o.txns(sc.Txns)
		sc.Runs = o.runs()
		sc.Seed = o.seed()
		sc.Schemes = []string{sim.SchemeFlash}
		sc.Router.FixedMiceOrder = fixed
		results, err := sim.RunScenario(sc)
		if err != nil {
			return err
		}
		r := results[0]
		name := "random"
		if fixed {
			name = "fixed"
		}
		mProbes := r.Mean(func(m sim.Metrics) float64 { return float64(m.MiceProbeMessages) })
		fmt.Fprintf(w, "%s\t%.4g\t%.1f%%\t%.0f\n",
			name, volumeOf(r), 100*r.Mean(sim.Metrics.SuccessRatio), mProbes)
	}
	return w.Flush()
}

// AblationProbeAllK compares the two readings of Algorithm 1's
// termination: early exit once the found flow covers the demand
// (default) versus always probing the full k paths, which gives the fee
// LP more slack at a higher probing cost.
func AblationProbeAllK(o Options) error {
	o.header("Ablation", "Algorithm 1 termination: early exit vs always-k")
	w := o.table("variant\tsucc.volume\tfee ratio\telephant probe msgs")
	for _, all := range []bool{false, true} {
		sc := o.scenario(sim.KindRipple, o.rippleNodes())
		sc.Txns = o.txns(sc.Txns)
		sc.Runs = o.runs()
		sc.Seed = o.seed()
		sc.Schemes = []string{sim.SchemeFlash}
		sc.Router.ProbeAllK = all
		results, err := sim.RunScenario(sc)
		if err != nil {
			return err
		}
		r := results[0]
		name := "early exit (f ≥ d)"
		if all {
			name = "always k paths"
		}
		eProbes := r.Mean(func(m sim.Metrics) float64 { return float64(m.ElephantProbeMsgs) })
		fmt.Fprintf(w, "%s\t%.4g\t%.3f%%\t%.0f\n",
			name, volumeOf(r), 100*r.Mean(sim.Metrics.FeeRatio), eProbes)
	}
	return w.Flush()
}

// AblationMaxFlowBound measures how close Flash's k-bounded lazy search
// gets to the classic Edmonds–Karp with full network knowledge — the
// strawman the paper's §3.2 dismisses for its probing cost.
func AblationMaxFlowBound(o Options) error {
	o.header("Ablation", "Flash vs full-probe max-flow upper bound")
	w := o.table("scheme\tsucc.volume\tsucc.ratio\tprobe msgs")
	sc := o.scenario(sim.KindRipple, o.rippleNodes())
	sc.Txns = o.txns(sc.Txns)
	sc.Runs = o.runs()
	sc.Seed = o.seed()
	sc.Schemes = []string{sim.SchemeFlash, sim.SchemeMaxFlow}
	results, err := sim.RunScenario(sc)
	if err != nil {
		return err
	}
	for _, r := range results {
		fmt.Fprintf(w, "%s\t%.4g\t%.1f%%\t%.0f\n",
			r.Scheme, volumeOf(r), 100*r.Mean(sim.Metrics.SuccessRatio), probesOf(r))
	}
	return w.Flush()
}
