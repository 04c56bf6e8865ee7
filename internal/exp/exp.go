// Package exp regenerates every figure of the paper's evaluation
// (Figures 3–13). Figures lists them in presentation order; each prints
// its series as a textual table, and cmd/experiments and the root
// bench_test.go iterate that list. The static figures (6–11, the
// headline and the ablations) are cell lists over the paper's base
// cell, run by one sweep. The testbed figures (12–13) run
// testbed.Experiment, the function cmd/flashtestbed runs too.
//
// Every figure runs at the paper's scale (1,870-node Ripple / 2,511-node
// Lightning topologies, 5 runs, 10,000-payment testbeds); Options.Tiny
// shrinks each to unit-test size.
package exp

import (
	"fmt"
	"io"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"text/tabwriter"

	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
)

// Options controls experiment scale and reporting.
type Options struct {
	Tiny bool      // drastically shrunk sizes, for unit tests
	Seed int64     // base seed (default 1)
	Out  io.Writer // destination for tables (required)

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

// Figures is the evaluation catalogue in presentation order: the name
// cmd/experiments' -fig selects and the function printing the figure.
var Figures = []struct {
	Name string
	Run  func(Options) error
}{
	{"3", fig3}, {"4", fig4}, {"6", fig6}, {"7", fig7}, {"8", fig8},
	{"9", fig9}, {"10", fig10}, {"11", fig11}, {"12", fig12},
	{"13", fig13}, {"headline", headline}, {"ablations", ablations},
	{"dynamic", dynamic}, {"latency", latency},
}

// base is the paper's base cell (2000 payments, capacity scale factor
// 10, 90% mice) on one topology at the options' scale.
func (o Options) base(kind string) sim.Scenario {
	nodes := o.rippleNodes()
	if kind == sim.KindLightning {
		nodes = o.lightningNodes()
	}
	sc := sim.DefaultScenario(o.kindFor(kind), nodes)
	sc.Runs = o.runs()
	sc.Seed = o.seed()
	return sc
}

// runCells runs n independent cells on one GOMAXPROCS pool and returns
// their results in index order; an error aborts the whole figure. The
// pool's goroutines draw cell indices from one atomic counter.
func runCells[T any](n int, cell func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := min(n, runtime.GOMAXPROCS(0)); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				out[i], errs[i] = cell(i)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

func (o Options) seed() int64 {
	if o.Seed == 0 {
		return 1
	}
	return o.Seed
}

// Topology sizes: the paper's, or Tiny's.
func (o Options) rippleNodes() int {
	if o.Tiny {
		return 60
	}
	return 1870 // paper §4.1: processed Ripple crawl
}

func (o Options) lightningNodes() int {
	if o.Tiny {
		return 60
	}
	return 2511 // paper §4.1: Lightning snapshot
}

func (o Options) runs() int {
	if o.Tiny {
		return 1
	}
	return 5 // paper: "average results over 5 runs"
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
	scale := "paper scale"
	if o.Tiny {
		scale = "reduced scale"
	}
	fmt.Fprintf(o.Out, "\n== %s: %s (%s) ==\n", fig, title, scale)
}

// table starts a tabwriter with the given column headers.
func (o Options) table(cols string) *tabwriter.Writer {
	w := tabwriter.NewWriter(o.Out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, cols)
	return w
}

// tabulate prints rows under cols as one table.
func (o Options) tabulate(cols string, rows []string) error {
	w := o.table(cols)
	for _, row := range rows {
		fmt.Fprint(w, row)
	}
	return w.Flush()
}

// fig3 reproduces the payment-size CDFs: median, p90 and top-10% volume
// share for the Ripple and Bitcoin size models (paper: medians $4.8 and
// 1.293e6 satoshi; top-10% shares 94.5% and 94.7%).
func fig3(o Options) error {
	o.header("Figure 3", "payment size distributions")
	n := 1000000
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

// fig4 reproduces the recurrence analysis: per-day recurring fraction
// (paper median ≈86%) and top-5 recurring share (paper >70%).
func fig4(o Options) error {
	o.header("Figure 4", "recurring transactions")
	days := 1306 // the Ripple trace covers 1306 days
	if o.Tiny {
		days = 4
	}
	cfg := trace.RecurrenceConfig(o.seed())
	gen, err := trace.NewGenerator(cfg)
	if err != nil {
		return err
	}
	ps := gen.Generate(days * trace.PaymentsPerDay)
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

// A cell is one scenario of a static figure: its row label and the
// delta it applies to the base cell.
type cell struct {
	label string
	set   func(*sim.Scenario)
}

// A sweep is a static figure: a header, then its cells run on every
// topology of kinds and printed one row group each, in order.
type sweep struct {
	fig, title string
	kinds      []string // topologies, in table order
	panels     bool     // one "-- Kind --" table per topology, else one table
	schemes    []string // nil: sim.PaperSchemes
	cols       string
	cells      []cell
	row        func(kind, label string, rs []sim.SchemeResult) string
	foot       func() string // optional last row of a one-table sweep
}

var (
	bothKinds  = []string{sim.KindRipple, sim.KindLightning}
	rippleOnly = []string{sim.KindRipple}
)

// run runs every cell of s on every topology — the base cell plus the
// cell's delta — on one GOMAXPROCS pool, then prints the rows in
// order. It is the package's only sim.Run call for a replay.
func (s sweep) run(o Options) error {
	o.header(s.fig, s.title)
	n := len(s.cells)
	results, err := runCells(len(s.kinds)*n, func(i int) ([]sim.SchemeResult, error) {
		sc := o.base(s.kinds[i/n])
		if s.schemes != nil {
			sc.Schemes = s.schemes
		}
		if s.cells[i%n].set != nil {
			s.cells[i%n].set(&sc)
		}
		sc.Txns = o.txns(sc.Txns)
		return sim.Run(sc)
	})
	if err != nil {
		return err
	}
	var rows []string
	for k, kind := range s.kinds {
		for i, c := range s.cells {
			rows = append(rows, s.row(kind, c.label, results[k*n+i]))
		}
		switch {
		case s.panels:
			fmt.Fprintf(o.Out, "-- %s --\n", kindLabel(kind))
		case k < len(s.kinds)-1:
			continue // one table spans every topology
		case s.foot != nil:
			rows = append(rows, s.foot())
		}
		if err := o.tabulate(s.cols, rows); err != nil {
			return err
		}
		rows = rows[:0]
	}
	return nil
}

// ratioVolume prints one row per scheme: label, success ratio, volume.
func ratioVolume(_, label string, rs []sim.SchemeResult) string {
	var b strings.Builder
	for _, r := range rs {
		fmt.Fprintf(&b, "%s\t%s\t%.1f%%\t%.4g\n",
			label, r.Scheme, 100*r.Mean(sim.Metrics.SuccessRatio), volumeOf(r))
	}
	return b.String()
}

// fig6 sweeps the capacity scale factor (1–60) on both topologies and
// reports success ratio and success volume per scheme — panels (a)–(d).
func fig6(o Options) error {
	var cells []cell
	for _, f := range []float64{1, 10, 20, 30, 40, 50, 60} {
		cells = append(cells, cell{fmt.Sprintf("%g", f), func(sc *sim.Scenario) { sc.ScaleFactor = f }})
	}
	return sweep{fig: "Figure 6", title: "success ratio & volume vs capacity scale factor",
		kinds: bothKinds, panels: true, cols: "scale\tscheme\tsucc.ratio\tsucc.volume",
		cells: cells, row: ratioVolume}.run(o)
}

// txnCells are cells replaying each of loads payments.
func txnCells(loads ...int) []cell {
	var cells []cell
	for _, txns := range loads {
		cells = append(cells, cell{fmt.Sprint(txns), func(sc *sim.Scenario) { sc.Txns = txns }})
	}
	return cells
}

// fig7 sweeps the number of transactions (1000–6000) at scale factor 10
// — panels (a)–(d).
func fig7(o Options) error {
	return sweep{fig: "Figure 7", title: "success ratio & volume vs number of transactions",
		kinds: bothKinds, panels: true, cols: "txns\tscheme\tsucc.ratio\tsucc.volume",
		cells: txnCells(1000, 2000, 3000, 4000, 5000, 6000), row: ratioVolume}.run(o)
}

// fig8 compares probing-message overhead between Flash and Spider at
// 2000 transactions, scale factor 10 (the static schemes send none).
func fig8(o Options) error {
	return sweep{fig: "Figure 8", title: "probing message overhead (Flash vs Spider)",
		kinds: bothKinds, schemes: []string{sim.SchemeFlash, sim.SchemeSpider},
		cols: "topology\tscheme\tprobe messages\tsavings vs Spider", cells: []cell{{}},
		row: func(kind, _ string, rs []sim.SchemeResult) string {
			flash, spider := probesOf(rs[0]), probesOf(rs[1])
			savings := 0.0
			if spider > 0 {
				savings = 1 - flash/spider
			}
			return fmt.Sprintf("%s\tFlash\t%.0f\t%.0f%%  (paper: 43%% Ripple / 37%% Lightning)\n%s\tSpider\t%.0f\t—\n",
				kindLabel(kind), flash, 100*savings, kindLabel(kind), spider)
		}}.run(o)
}

// fig9 compares the fee-to-volume ratio with and without the LP fee
// optimisation at 1000/2000/4000 transactions (paper: ≈40% reduction),
// in the paper's panel order: (a) Lightning, (b) Ripple.
func fig9(o Options) error {
	return sweep{fig: "Figure 9", title: "transaction fee optimisation",
		kinds: []string{sim.KindLightning, sim.KindRipple}, panels: true,
		schemes: []string{sim.SchemeFlash, sim.SchemeFlashNoOpt},
		cols:    "txns\tfee ratio w/ opt\tfee ratio w/o opt\treduction", cells: txnCells(1000, 2000, 4000),
		row: func(_, label string, rs []sim.SchemeResult) string {
			with := rs[0].Mean(sim.Metrics.FeeRatio)
			without := rs[1].Mean(sim.Metrics.FeeRatio)
			reduction := 0.0
			if without > 0 {
				reduction = 1 - with/without
			}
			return fmt.Sprintf("%s\t%.3f%%\t%.3f%%\t%.0f%%\n", label, 100*with, 100*without, 100*reduction)
		}}.run(o)
}

// fig10 sweeps the elephant/mice threshold so that 0–100% of payments
// are mice, reporting total success volume and probing messages (paper:
// volume stays flat until ≈80–90% mice while probing falls).
func fig10(o Options) error {
	var cells []cell
	for pct := 0; pct <= 100; pct += 10 { // integer steps: 0.1 sums overshoot 0.3
		mice := float64(pct) / 100
		cells = append(cells, cell{fmt.Sprint(pct), func(sc *sim.Scenario) { sc.MiceFraction = mice }})
	}
	return sweep{fig: "Figure 10", title: "impact of the elephant/mice threshold",
		kinds: bothKinds, panels: true, schemes: []string{sim.SchemeFlash},
		cols: "mice %\tsucc.volume\tprobe messages", cells: cells,
		row: func(_, label string, rs []sim.SchemeResult) string {
			return fmt.Sprintf("%s\t%.4g\t%.0f\n", label, volumeOf(rs[0]), probesOf(rs[0]))
		}}.run(o)
}

// fig11 sweeps m, the number of routing-table paths per receiver, for
// mice routing on the Ripple topology (the paper shows Ripple only).
// m=0 routes mice with the elephant algorithm — the upper bound.
func fig11(o Options) error {
	var cells []cell
	for m := 0; m <= 8; m++ {
		cells = append(cells, cell{fmt.Sprint(m), func(sc *sim.Scenario) { sc.Router.M, sc.Router.MSet = m, true }})
	}
	return sweep{fig: "Figure 11", title: "impact of paths per receiver (m) on mice routing",
		kinds: rippleOnly, schemes: []string{sim.SchemeFlash},
		cols: "m\tmice succ.volume\tmice probe messages", cells: cells,
		row: func(_, label string, rs []sim.SchemeResult) string {
			miceVol := rs[0].Mean(func(m sim.Metrics) float64 { return m.MiceSuccessVolume })
			miceProbes := rs[0].Mean(func(m sim.Metrics) float64 { return float64(m.MiceProbeMessages) })
			return fmt.Sprintf("%s\t%.4g\t%.0f\n", label, miceVol, miceProbes)
		}}.run(o)
}

// headline recomputes the paper's abstract claim: Flash's success
// volume vs Spider's, reporting the maximum gain across the Figure 6/7
// operating points (paper: "up to 2.3×").
func headline(o Options) error {
	var cells []cell
	for _, f := range []float64{1, 10, 30} {
		cells = append(cells, cell{fmt.Sprintf("scale=%g", f), func(sc *sim.Scenario) { sc.ScaleFactor = f }})
	}
	best, bestDesc := 0.0, ""
	return sweep{fig: "Headline", title: "max success-volume gain of Flash over Spider",
		kinds: bothKinds, schemes: []string{sim.SchemeFlash, sim.SchemeSpider},
		cols: "topology\toperating point\tFlash/Spider volume", cells: cells,
		row: func(kind, label string, rs []sim.SchemeResult) string {
			gain := volumeOf(rs[0]) / volumeOf(rs[1])
			if gain > best {
				best, bestDesc = gain, kindLabel(kind)+" "+label
			}
			return fmt.Sprintf("%s\t%s\t%.2fx\n", kindLabel(kind), label, gain)
		},
		foot: func() string { return fmt.Sprintf("max\t%s\t%.2fx  (paper: up to 2.3x)\n", bestDesc, best) },
	}.run(o)
}
