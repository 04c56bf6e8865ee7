// Command experiments regenerates the paper's evaluation: every figure
// from Figure 3 (trace statistics) through Figure 13 (100-node
// testbed), plus the headline success-volume comparison.
//
// Examples:
//
//	experiments                 # all figures at paper scale
//	experiments -fig 6,8        # selected figures only
//	experiments -topology ln.json -fig 6,7  # over a real snapshot
//	experiments -telemetry 127.0.0.1:9090   # live /metrics + pprof
//
// Every figure runs at the paper's scale and fixes its own settings:
// Flash's probe width and control policy are the paper's (sequential
// probing, no control plane) except where a figure varies them itself
// (-fig latency sweeps the probe width; the dynamic table's
// demand-drift cell runs its preset's policy).
//
// On two vCPUs the simulated figures (3–11, the headline, the
// ablations, dynamic and latency) take about 30 s together, and the
// TCP testbed figures 12 and 13 about 26 s and 30 s.
//
// -telemetry ADDR serves Go runtime metrics and /debug/pprof/ while
// the figures run — useful for profiling a regeneration.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/exp"
	"repro/internal/telemetry"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run executes one invocation and returns the exit code: 2 for a usage
// error (a bad flag or an unknown figure), 1 when a figure fails.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		figs     = fs.String("fig", "all", "comma-separated figure list (3,4,6,7,8,9,10,11,12,13,headline,ablations,dynamic,latency) or 'all'")
		seed     = fs.Int64("seed", 1, "base random seed")
		topology = fs.String("topology", "", "snapshot file (LN graph JSON or capacity edge list) replacing every figure's generated topology")
		telAddr  = fs.String("telemetry", "", "serve runtime /metrics and pprof on this address while figures run")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	o := exp.Options{Seed: *seed, Out: stdout, Topology: *topology}
	selected := map[string]bool{}
	for _, f := range exp.Figures {
		selected[f.Name] = *figs == "all"
	}
	if *figs != "all" {
		for _, f := range strings.Split(*figs, ",") {
			f = strings.TrimSpace(f)
			if _, ok := selected[f]; !ok {
				fmt.Fprintf(stderr, "experiments: unknown figure %q\n", f)
				return 2
			}
			selected[f] = true
		}
	}

	if *telAddr != "" {
		reg := telemetry.NewRegistry()
		telemetry.RegisterRuntimeMetrics(reg)
		srv, err := telemetry.NewServer(*telAddr, reg, nil)
		if err != nil {
			fmt.Fprintln(stderr, "experiments:", err)
			return 1
		}
		defer srv.Close()
		fmt.Fprintf(stdout, "# telemetry on http://%s/metrics\n", srv.Addr())
	}
	for _, f := range exp.Figures {
		if !selected[f.Name] {
			continue
		}
		if err := f.Run(o); err != nil {
			fmt.Fprintf(stderr, "experiments: figure %s: %v\n", f.Name, err)
			return 1
		}
	}
	return 0
}
