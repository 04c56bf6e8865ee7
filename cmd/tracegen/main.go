// Command tracegen generates a synthetic payment trace and reports the
// statistics the paper measures on the real Ripple and Bitcoin traces
// (§2.2): the payment-size CDF and heavy-tail share (Figure 3) and the
// recurrence statistics (Figure 4).
//
// Examples:
//
//	tracegen -sizes ripple -n 100000
//	tracegen -sizes bitcoin -n 100000 -cdf 20
//	tracegen -recurrence -days 30
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/stats"
	"repro/internal/trace"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("tracegen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		n          = fs.Int("n", 100000, "number of payments to generate")
		sizes      = fs.String("sizes", "ripple", "size model: ripple or bitcoin")
		nodes      = fs.Int("nodes", 1000, "node ID space")
		seed       = fs.Int64("seed", 1, "random seed")
		cdfPoints  = fs.Int("cdf", 0, "print this many CDF points (0 = skip)")
		recurrence = fs.Bool("recurrence", false, "report Figure 4 recurrence statistics")
		days       = fs.Int("days", 10, "days of trace for -recurrence (2000 payments/day)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	for _, f := range []struct {
		name     string
		v, floor int
	}{{"n", *n, 1}, {"days", *days, 1}, {"cdf", *cdfPoints, 0}} {
		if f.v < f.floor {
			fmt.Fprintf(stderr, "tracegen: -%s must be at least %d, got %d\n", f.name, f.floor, f.v)
			return 2
		}
	}

	cfg := trace.DefaultConfig(*nodes)
	cfg.Seed = *seed
	if *recurrence {
		// Figure 4 is one workload (fig4's), whose per-sender density the
		// recurrence statistic depends on: its node count is not a knob.
		nodesSet := false
		fs.Visit(func(f *flag.Flag) { nodesSet = nodesSet || f.Name == "nodes" })
		if nodesSet {
			fmt.Fprintln(stderr, "tracegen: -nodes cannot be combined with -recurrence (Figure 4 fixes its workload)")
			return 2
		}
		cfg = trace.RecurrenceConfig(*seed)
	}
	switch *sizes {
	case "ripple":
		cfg.Sizes = trace.RippleSizes
	case "bitcoin":
		cfg.Sizes = trace.BitcoinSizes
	default:
		fmt.Fprintf(stderr, "tracegen: unknown size model %q\n", *sizes)
		return 1
	}

	count := *n
	if *recurrence {
		count = *days * trace.PaymentsPerDay
	}
	gen, err := trace.NewGenerator(cfg)
	if err != nil {
		fmt.Fprintln(stderr, "tracegen:", err)
		return 1
	}
	payments := gen.Generate(count)

	st := trace.AnalyzeSizes(payments)
	fmt.Fprintf(stdout, "# Figure 3 statistics (%s, %d payments)\n", cfg.Sizes.Name, count)
	fmt.Fprintf(stdout, "median size:       %.4g\n", st.Median)
	fmt.Fprintf(stdout, "p90 size:          %.4g\n", st.P90)
	fmt.Fprintf(stdout, "top-10%% vol share: %.1f%%   (paper: 94.5%% Ripple / 94.7%% Bitcoin)\n", 100*st.Top10Share)
	fmt.Fprintf(stdout, "total volume:      %.4g\n", st.TotalVolume)

	if *cdfPoints > 0 {
		fmt.Fprintf(stdout, "\n# size CDF (%d points): value probability\n", *cdfPoints)
		for _, pt := range trace.SizeCDF(payments).Points(*cdfPoints) {
			fmt.Fprintf(stdout, "%.6g %.4f\n", pt[0], pt[1])
		}
	}

	if *recurrence {
		fracs := trace.RecurringPerDay(payments)
		shares := trace.Top5RecurringShare(payments)
		fmt.Fprintf(stdout, "\n# Figure 4 statistics (%d days)\n", len(fracs))
		fmt.Fprintf(stdout, "recurring fraction/day:  median %.1f%% (min %.1f%%, max %.1f%%)   (paper: median 86%%)\n",
			100*stats.Median(fracs), 100*stats.Summarize(fracs).Min, 100*stats.Summarize(fracs).Max)
		fmt.Fprintf(stdout, "top-5 recurring share:   median %.1f%%   (paper: >70%%)\n",
			100*stats.Median(shares))
	}
	return 0
}
