// Command flashtestbed reproduces the paper's testbed evaluation (§5,
// Figures 12 and 13): it runs testbed.Experiment, which boots one TCP
// protocol node per network participant on loopback, replays a
// Ripple-volume workload, and reports success volume, success ratio and
// normalised processing delay for each scheme and capacity range.
// experiments -fig 12,13 runs the same experiment at the figures' sizes.
//
// Examples:
//
//	flashtestbed -nodes 50 -txns 10000               # Figure 12
//	flashtestbed -nodes 100 -txns 10000              # Figure 13
//	flashtestbed -nodes 20 -txns 500 -ranges 1000:1500
//	flashtestbed -nodes 20 -txns 500 -telemetry 127.0.0.1:9090
//
// With -telemetry ADDR the run serves live /metrics, /metrics.json,
// /flows (one JSONL record per payment; ?follow=1 streams) and
// /debug/pprof/ for its duration. Telemetry is observer-only: results
// are identical with it on or off.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"repro/internal/telemetry"
	"repro/internal/testbed"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("flashtestbed", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		nodes   = fs.Int("nodes", 50, "number of TCP nodes (paper: 50 and 100)")
		txns    = fs.Int("txns", 10000, "number of transactions (paper: 10,000)")
		runs    = fs.Int("runs", 1, "independent runs (paper: 5)")
		seed    = fs.Int64("seed", 1, "base random seed")
		schemes = fs.String("schemes", "Flash,Spider,ShortestPath", "schemes to compare (the paper's testbed set)")
		ranges  = fs.String("ranges", "1000:1500,1500:2000,2000:2500", "capacity ranges lo:hi, comma separated")
		timeout = fs.Duration("timeout", 10*time.Second, "per-message-exchange timeout")
		telAddr = fs.String("telemetry", "", "serve /metrics, /flows and pprof on this address for the run's duration")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	e := testbed.Experiment{
		Nodes: *nodes, Txns: *txns, Runs: *runs, Seed: *seed,
		Schemes: strings.Split(*schemes, ","), Timeout: *timeout,
	}
	for _, rng := range strings.Split(*ranges, ",") {
		var r [2]float64
		if _, err := fmt.Sscanf(strings.TrimSpace(rng), "%f:%f", &r[0], &r[1]); err != nil {
			fmt.Fprintf(stderr, "flashtestbed: bad range %q: %v\n", rng, err)
			return 1
		}
		e.Ranges = append(e.Ranges, r)
	}

	if *telAddr != "" {
		reg := telemetry.NewRegistry()
		telemetry.RegisterRuntimeMetrics(reg)
		flows := telemetry.NewFlowLog(4096)
		srv, err := telemetry.NewServer(*telAddr, reg, flows)
		if err != nil {
			fmt.Fprintln(stderr, "flashtestbed:", err)
			return 1
		}
		defer srv.Close()
		fmt.Fprintf(stdout, "# telemetry on http://%s/metrics\n", srv.Addr())
		e.Telemetry = testbed.Telemetry{Registry: reg, Sink: flows}
	}

	fmt.Fprintf(stdout, "# testbed: %d nodes (Watts-Strogatz), %d txns, %d run(s)\n", *nodes, *txns, *runs)
	if err := e.Run(stdout); err != nil {
		fmt.Fprintln(stderr, "flashtestbed:", err)
		return 1
	}
	return 0
}
