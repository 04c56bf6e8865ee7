// Package exp regenerates every figure of the paper's evaluation
// (Figures 3–13) from the reproduction's own substrates. Each FigN
// function runs the experiment and prints the figure's series in a
// textual table; cmd/experiments and the repository's benchmark harness
// are thin wrappers around this package. The testbed figures (12–13)
// run testbed.Experiment, the function cmd/flashtestbed runs too.
//
// Options.Full selects paper-scale parameters (1,870-node Ripple /
// 2,511-node Lightning topologies, 5 runs, 10,000-payment testbeds);
// the default is a reduced configuration with the same sweeps and
// the same qualitative shapes at a fraction of the runtime.
package exp

import (
	"fmt"
	"io"
	"strings"
	"text/tabwriter"

	"repro/internal/control"
	"repro/internal/parallel"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
)

// Options controls experiment scale and reporting.
type Options struct {
	Full bool      // paper-scale sizes when true
	Tiny bool      // drastically shrunk sizes, for unit tests
	Seed int64     // base seed (default 1)
	Out  io.Writer // destination for tables (required)

	// Workers bounds the goroutines running independent scenario cells
	// of the sweep figures (6 and 7) concurrently. 0 uses GOMAXPROCS;
	// 1 forces the historical fully sequential sweep. Cell results are
	// deterministic functions of the seed, so the printed tables are
	// identical at any worker count — only wall-clock time changes.
	Workers int

	// ProbeWorkers sets Flash's per-session speculative probe pool in
	// every simulated cell (the scenarios' Router.ProbeWorkers). ≤ 1 — the default — keeps the
	// sequential Algorithm 1 probing the paper's figures were captured
	// with; > 1 trades extra probe messages for lower per-elephant
	// latency. Tables stay deterministic for a fixed value.
	ProbeWorkers int

	// Control, when non-nil, installs this adaptive control-plane
	// policy in every dynamic-scenario cell (sim.DynamicScenario.Control):
	// raw or EWMA-smoothed global threshold, per-sender thresholds,
	// probe width. Nil leaves each cell's catalogue preset (demand-drift
	// runs the raw threshold policy). Tables stay deterministic for a
	// fixed policy.
	Control *control.Policy

	// Topology, when non-empty, replaces every figure's generated
	// topology with the snapshot file at this path (LN channel-graph
	// JSON or a Ripple capacity edge list — topo.LoadSnapshotFile),
	// reproducing the evaluation over a real ingested graph.
	Topology string
}

// kindFor resolves a figure's topology kind against the Topology
// override: the ingested snapshot when one is set, kind otherwise.
func (o Options) kindFor(kind string) string {
	if o.Topology != "" {
		return sim.KindSnapshotPrefix + o.Topology
	}
	return kind
}

// scenario builds the base experiment cell for a kind, applying the
// option-level Flash knobs every figure shares.
func (o Options) scenario(kind string, nodes int) sim.Scenario {
	sc := sim.DefaultScenario(o.kindFor(kind), nodes)
	sc.Router.ProbeWorkers = o.ProbeWorkers
	return sc
}

// runCells executes n independent cell functions on the Options.Workers
// pool, preserving index order of results. Each cell returns its
// formatted table rows; errors abort the whole figure.
func (o Options) runCells(n int, cell func(i int) (string, error)) ([]string, error) {
	rows := make([]string, n)
	errs := make([]error, n)
	parallel.ForEach(n, o.Workers, func(_, i int) {
		rows[i], errs[i] = cell(i)
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return rows, nil
}

func (o Options) seed() int64 {
	if o.Seed == 0 {
		return 1
	}
	return o.Seed
}

// Topology sizes per scale.
func (o Options) rippleNodes() int {
	if o.Full {
		return 1870 // paper §4.1: processed Ripple crawl
	}
	if o.Tiny {
		return 60
	}
	return 500
}

func (o Options) lightningNodes() int {
	if o.Full {
		return 2511 // paper §4.1: Lightning snapshot
	}
	if o.Tiny {
		return 60
	}
	return 600
}

func (o Options) runs() int {
	if o.Full {
		return 5 // paper: "average results over 5 runs"
	}
	if o.Tiny {
		return 1
	}
	return 2
}

// txns shrinks a workload size in Tiny mode.
func (o Options) txns(def int) int {
	if o.Tiny && def > 150 {
		return 150
	}
	return def
}

// header prints a figure banner.
func (o Options) header(fig, title string) {
	scale := "reduced scale"
	if o.Full {
		scale = "paper scale"
	}
	fmt.Fprintf(o.Out, "\n== %s: %s (%s) ==\n", fig, title, scale)
}

// table starts a tabwriter with the given column headers.
func (o Options) table(cols string) *tabwriter.Writer {
	w := tabwriter.NewWriter(o.Out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, cols)
	return w
}

// Fig3 reproduces the payment-size CDFs: median, p90 and top-10% volume
// share for the Ripple and Bitcoin size models (paper: medians $4.8 and
// 1.293e6 satoshi; top-10% shares 94.5% and 94.7%).
func Fig3(o Options) error {
	o.header("Figure 3", "payment size distributions")
	n := 100000
	if o.Full {
		n = 1000000
	}
	if o.Tiny {
		n = 5000
	}
	w := o.table("trace\tmedian\tp90\ttop-10% volume\tpaper top-10%")
	for _, model := range []trace.SizeModel{trace.RippleSizes, trace.BitcoinSizes} {
		cfg := trace.DefaultConfig(1000)
		cfg.Sizes = model
		cfg.Seed = o.seed()
		gen, err := trace.NewGenerator(cfg)
		if err != nil {
			return err
		}
		st := trace.AnalyzeSizes(gen.Generate(n))
		paper := "94.5%"
		if model.Name == trace.BitcoinSizes.Name {
			paper = "94.7%"
		}
		fmt.Fprintf(w, "%s\t%.4g\t%.4g\t%.1f%%\t%s\n",
			model.Name, st.Median, st.P90, 100*st.Top10Share, paper)
	}
	return w.Flush()
}

// Fig4 reproduces the recurrence analysis: per-day recurring fraction
// (paper median ≈86%) and top-5 recurring share (paper >70%).
func Fig4(o Options) error {
	o.header("Figure 4", "recurring transactions")
	days := 30
	if o.Full {
		days = 1306 // the Ripple trace covers 1306 days
	}
	if o.Tiny {
		days = 4
	}
	// 100 active accounts at 2000 payments/day gives each sender the
	// per-day transaction density of the real Ripple trace; the
	// within-day recurrence statistic depends directly on it.
	cfg := trace.DefaultConfig(100)
	cfg.RecurrenceProb = 0.93
	cfg.Seed = o.seed()
	gen, err := trace.NewGenerator(cfg)
	if err != nil {
		return err
	}
	ps := gen.Generate(days * cfg.PaymentsPerDay)
	fracs := trace.RecurringPerDay(ps)
	shares := trace.Top5RecurringShare(ps)
	w := o.table("metric\tmedian\tmin\tmax\tpaper")
	fs := stats.Summarize(fracs)
	ss := stats.Summarize(shares)
	fmt.Fprintf(w, "recurring fraction/day\t%.1f%%\t%.1f%%\t%.1f%%\tmedian 86%%\n",
		100*stats.Median(fracs), 100*fs.Min, 100*fs.Max)
	fmt.Fprintf(w, "top-5 recurring share\t%.1f%%\t%.1f%%\t%.1f%%\t>70%%\n",
		100*stats.Median(shares), 100*ss.Min, 100*ss.Max)
	return w.Flush()
}

// kindLabel maps a topology kind to the paper's panel name.
func kindLabel(kind string) string {
	if kind == sim.KindRipple {
		return "Ripple"
	}
	return "Lightning"
}

// volumeOf extracts mean success volume.
func volumeOf(r sim.SchemeResult) float64 {
	return r.Mean(func(m sim.Metrics) float64 { return m.SuccessVolume })
}

// probesOf extracts mean probing messages.
func probesOf(r sim.SchemeResult) float64 {
	return r.Mean(func(m sim.Metrics) float64 { return float64(m.ProbeMessages) })
}

// Fig6 sweeps the capacity scale factor (1–60) on both topologies and
// reports success ratio and success volume per scheme — panels (a)–(d).
// The scenario cells of a sweep are independent, so they run on the
// Options.Workers pool; rows are printed in sweep order regardless.
func Fig6(o Options) error {
	o.header("Figure 6", "success ratio & volume vs capacity scale factor")
	factors := []float64{1, 10, 20, 30, 40, 50, 60}
	for _, kind := range []string{sim.KindRipple, sim.KindLightning} {
		nodes := o.rippleNodes()
		if kind == sim.KindLightning {
			nodes = o.lightningNodes()
		}
		fmt.Fprintf(o.Out, "-- %s --\n", kindLabel(kind))
		w := o.table("scale\tscheme\tsucc.ratio\tsucc.volume")
		rows, err := o.runCells(len(factors), func(i int) (string, error) {
			f := factors[i]
			sc := o.scenario(kind, nodes)
			sc.ScaleFactor = f
			sc.Txns = o.txns(sc.Txns)
			sc.Runs = o.runs()
			sc.Seed = o.seed()
			results, err := sim.RunScenario(sc)
			if err != nil {
				return "", err
			}
			var b strings.Builder
			for _, r := range results {
				fmt.Fprintf(&b, "%g\t%s\t%.1f%%\t%.4g\n",
					f, r.Scheme, 100*r.Mean(sim.Metrics.SuccessRatio), volumeOf(r))
			}
			return b.String(), nil
		})
		if err != nil {
			return err
		}
		for _, row := range rows {
			fmt.Fprint(w, row)
		}
		if err := w.Flush(); err != nil {
			return err
		}
	}
	return nil
}

// Fig7 sweeps the number of transactions (1000–6000) at scale factor 10
// — panels (a)–(d). Cells run on the Options.Workers pool like Fig6.
func Fig7(o Options) error {
	o.header("Figure 7", "success ratio & volume vs number of transactions")
	loads := []int{1000, 2000, 3000, 4000, 5000, 6000}
	for _, kind := range []string{sim.KindRipple, sim.KindLightning} {
		nodes := o.rippleNodes()
		if kind == sim.KindLightning {
			nodes = o.lightningNodes()
		}
		fmt.Fprintf(o.Out, "-- %s --\n", kindLabel(kind))
		w := o.table("txns\tscheme\tsucc.ratio\tsucc.volume")
		rows, err := o.runCells(len(loads), func(i int) (string, error) {
			txns := loads[i]
			sc := o.scenario(kind, nodes)
			sc.Txns = o.txns(txns)
			sc.Runs = o.runs()
			sc.Seed = o.seed()
			results, err := sim.RunScenario(sc)
			if err != nil {
				return "", err
			}
			var b strings.Builder
			for _, r := range results {
				fmt.Fprintf(&b, "%d\t%s\t%.1f%%\t%.4g\n",
					txns, r.Scheme, 100*r.Mean(sim.Metrics.SuccessRatio), volumeOf(r))
			}
			return b.String(), nil
		})
		if err != nil {
			return err
		}
		for _, row := range rows {
			fmt.Fprint(w, row)
		}
		if err := w.Flush(); err != nil {
			return err
		}
	}
	return nil
}

// Fig8 compares probing-message overhead between Flash and Spider at
// 2000 transactions, scale factor 10 (the static schemes send none).
func Fig8(o Options) error {
	o.header("Figure 8", "probing message overhead (Flash vs Spider)")
	w := o.table("topology\tscheme\tprobe messages\tsavings vs Spider")
	for _, kind := range []string{sim.KindRipple, sim.KindLightning} {
		nodes := o.rippleNodes()
		if kind == sim.KindLightning {
			nodes = o.lightningNodes()
		}
		sc := o.scenario(kind, nodes)
		sc.Txns = o.txns(sc.Txns)
		sc.Schemes = []string{sim.SchemeFlash, sim.SchemeSpider}
		sc.Runs = o.runs()
		sc.Seed = o.seed()
		results, err := sim.RunScenario(sc)
		if err != nil {
			return err
		}
		flash, spider := probesOf(results[0]), probesOf(results[1])
		savings := 0.0
		if spider > 0 {
			savings = 1 - flash/spider
		}
		fmt.Fprintf(w, "%s\tFlash\t%.0f\t%.0f%%  (paper: 43%% Ripple / 37%% Lightning)\n",
			kindLabel(kind), flash, 100*savings)
		fmt.Fprintf(w, "%s\tSpider\t%.0f\t—\n", kindLabel(kind), spider)
	}
	return w.Flush()
}

// Fig9 compares the fee-to-volume ratio with and without the LP fee
// optimisation at 1000/2000/4000 transactions (paper: ≈40% reduction).
func Fig9(o Options) error {
	o.header("Figure 9", "transaction fee optimisation")
	loads := []int{1000, 2000, 4000}
	for _, kind := range []string{sim.KindLightning, sim.KindRipple} { // paper order: (a) Lightning, (b) Ripple
		nodes := o.rippleNodes()
		if kind == sim.KindLightning {
			nodes = o.lightningNodes()
		}
		fmt.Fprintf(o.Out, "-- %s --\n", kindLabel(kind))
		w := o.table("txns\tfee ratio w/ opt\tfee ratio w/o opt\treduction")
		for _, txns := range loads {
			sc := o.scenario(kind, nodes)
			sc.Txns = o.txns(txns)
			sc.Runs = o.runs()
			sc.Seed = o.seed()
			sc.Schemes = []string{sim.SchemeFlash, sim.SchemeFlashNoOpt}
			results, err := sim.RunScenario(sc)
			if err != nil {
				return err
			}
			with := results[0].Mean(sim.Metrics.FeeRatio)
			without := results[1].Mean(sim.Metrics.FeeRatio)
			reduction := 0.0
			if without > 0 {
				reduction = 1 - with/without
			}
			fmt.Fprintf(w, "%d\t%.3f%%\t%.3f%%\t%.0f%%\n",
				txns, 100*with, 100*without, 100*reduction)
		}
		if err := w.Flush(); err != nil {
			return err
		}
	}
	return nil
}

// Fig10 sweeps the elephant/mice threshold so that 0–100% of payments
// are mice, reporting total success volume and probing messages (paper:
// volume stays flat until ≈80–90% mice while probing falls).
func Fig10(o Options) error {
	o.header("Figure 10", "impact of the elephant/mice threshold")
	for _, kind := range []string{sim.KindRipple, sim.KindLightning} {
		nodes := o.rippleNodes()
		if kind == sim.KindLightning {
			nodes = o.lightningNodes()
		}
		fmt.Fprintf(o.Out, "-- %s --\n", kindLabel(kind))
		w := o.table("mice %\tsucc.volume\tprobe messages")
		for frac := 0.0; frac <= 1.0; frac += 0.1 {
			sc := o.scenario(kind, nodes)
			sc.Txns = o.txns(sc.Txns)
			sc.MiceFraction = frac
			if frac == 0 {
				sc.MiceFraction = 1e-9 // RunScenario treats 0 as unset
			}
			sc.Runs = o.runs()
			sc.Seed = o.seed()
			sc.Schemes = []string{sim.SchemeFlash}
			results, err := sim.RunScenario(sc)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "%.0f\t%.4g\t%.0f\n",
				100*frac, volumeOf(results[0]), probesOf(results[0]))
		}
		if err := w.Flush(); err != nil {
			return err
		}
	}
	return nil
}

// Fig11 sweeps m, the number of routing-table paths per receiver, for
// mice routing on the Ripple topology (the paper shows Ripple only).
// m=0 routes mice with the elephant algorithm — the upper bound.
func Fig11(o Options) error {
	o.header("Figure 11", "impact of paths per receiver (m) on mice routing")
	w := o.table("m\tmice succ.volume\tmice probe messages")
	for m := 0; m <= 8; m++ {
		sc := o.scenario(sim.KindRipple, o.rippleNodes())
		sc.Txns = o.txns(sc.Txns)
		sc.Router.M, sc.Router.MSet = m, true
		sc.Runs = o.runs()
		sc.Seed = o.seed()
		sc.Schemes = []string{sim.SchemeFlash}
		results, err := sim.RunScenario(sc)
		if err != nil {
			return err
		}
		miceVol := results[0].Mean(func(mm sim.Metrics) float64 { return mm.MiceSuccessVolume })
		miceProbes := results[0].Mean(func(mm sim.Metrics) float64 { return float64(mm.MiceProbeMessages) })
		fmt.Fprintf(w, "%d\t%.4g\t%.0f\n", m, miceVol, miceProbes)
	}
	return w.Flush()
}

// Headline recomputes the paper's abstract claim: Flash's success
// volume vs Spider's, reporting the maximum gain across the Figure 6/7
// operating points (paper: "up to 2.3×").
func Headline(o Options) error {
	o.header("Headline", "max success-volume gain of Flash over Spider")
	w := o.table("topology\toperating point\tFlash/Spider volume")
	best := 0.0
	bestDesc := ""
	for _, kind := range []string{sim.KindRipple, sim.KindLightning} {
		nodes := o.rippleNodes()
		if kind == sim.KindLightning {
			nodes = o.lightningNodes()
		}
		for _, f := range []float64{1, 10, 30} {
			sc := o.scenario(kind, nodes)
			sc.Txns = o.txns(sc.Txns)
			sc.ScaleFactor = f
			sc.Runs = o.runs()
			sc.Seed = o.seed()
			sc.Schemes = []string{sim.SchemeFlash, sim.SchemeSpider}
			results, err := sim.RunScenario(sc)
			if err != nil {
				return err
			}
			gain := volumeOf(results[0]) / volumeOf(results[1])
			desc := fmt.Sprintf("scale=%g", f)
			fmt.Fprintf(w, "%s\t%s\t%.2fx\n", kindLabel(kind), desc, gain)
			if gain > best {
				best, bestDesc = gain, kindLabel(kind)+" "+desc
			}
		}
	}
	fmt.Fprintf(w, "max\t%s\t%.2fx  (paper: up to 2.3x)\n", bestDesc, best)
	return w.Flush()
}
