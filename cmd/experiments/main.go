// Command experiments regenerates the paper's evaluation: every figure
// from Figure 3 (trace statistics) through Figure 13 (100-node
// testbed), plus the headline success-volume comparison.
//
// Examples:
//
//	experiments                 # all figures, reduced scale (~2 min)
//	experiments -full           # paper-scale parameters (tens of minutes)
//	experiments -fig 6,8        # selected figures only
//	experiments -telemetry 127.0.0.1:9090   # live /metrics + pprof
//
// -telemetry ADDR serves Go runtime metrics and /debug/pprof/ while
// the figures run — useful for profiling a -full regeneration.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/control"
	"repro/internal/exp"
	"repro/internal/telemetry"
)

func main() {
	var (
		figs     = flag.String("fig", "all", "comma-separated figure list (3,4,6,7,8,9,10,11,12,13,headline,ablations,dynamic,latency) or 'all'")
		full     = flag.Bool("full", false, "paper-scale parameters (slower)")
		seed     = flag.Int64("seed", 1, "base random seed")
		workers  = flag.Int("workers", 0, "goroutines for independent sweep cells (0 = GOMAXPROCS, 1 = sequential)")
		probeW   = flag.Int("probeworkers", 1, "Flash per-session probe pool: probe N speculative elephant candidate paths concurrently (1 = sequential Algorithm 1)")
		ctrl     = flag.String("control", "", "adaptive control plane for every dynamic-scenario cell, comma-separated: raw|ewma (global threshold), sender (per-sender thresholds), width (probe width); off/empty = none")
		topology = flag.String("topology", "", "snapshot file (LN graph JSON or capacity edge list) replacing every figure's generated topology")
		telAddr  = flag.String("telemetry", "", "serve runtime /metrics and pprof on this address while figures run")
	)
	flag.Parse()

	if *telAddr != "" {
		reg := telemetry.NewRegistry()
		telemetry.RegisterRuntimeMetrics(reg)
		srv, err := telemetry.NewServer(*telAddr, reg, nil)
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		defer srv.Close()
		fmt.Printf("# telemetry on http://%s/metrics\n", srv.Addr())
	}

	o := exp.Options{Full: *full, Seed: *seed, Out: os.Stdout, Workers: *workers, ProbeWorkers: *probeW, Topology: *topology}
	if *ctrl != "" {
		policy, err := control.ParsePolicy(*ctrl)
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(2)
		}
		if policy.Enabled() {
			o.Control = &policy
		}
	}
	runners := map[string]func(exp.Options) error{
		"3":         exp.Fig3,
		"4":         exp.Fig4,
		"6":         exp.Fig6,
		"7":         exp.Fig7,
		"8":         exp.Fig8,
		"9":         exp.Fig9,
		"10":        exp.Fig10,
		"11":        exp.Fig11,
		"12":        exp.Fig12,
		"13":        exp.Fig13,
		"headline":  exp.Headline,
		"ablations": exp.Ablations,
		"dynamic":   exp.Dynamic,
		"latency":   exp.Latency,
	}
	order := []string{"3", "4", "6", "7", "8", "9", "10", "11", "12", "13", "headline", "ablations", "dynamic", "latency"}

	selected := map[string]bool{}
	if *figs == "all" {
		for _, f := range order {
			selected[f] = true
		}
	} else {
		for _, f := range strings.Split(*figs, ",") {
			f = strings.TrimSpace(f)
			if _, ok := runners[f]; !ok {
				fmt.Fprintf(os.Stderr, "experiments: unknown figure %q\n", f)
				os.Exit(2)
			}
			selected[f] = true
		}
	}
	for _, f := range order {
		if !selected[f] {
			continue
		}
		if err := runners[f](o); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: figure %s: %v\n", f, err)
			os.Exit(1)
		}
	}
}
