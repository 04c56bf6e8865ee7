// Command flashtestbed reproduces the paper's testbed evaluation (§5,
// Figures 12 and 13): it boots one TCP protocol node per network
// participant on loopback, replays a Ripple-volume workload, and
// reports success volume, success ratio and normalised processing
// delay for each scheme and capacity range.
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
	"os"
	"strings"
	"text/tabwriter"
	"time"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/route"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/testbed"
	"repro/internal/topo"
	"repro/internal/trace"
)

func main() {
	var (
		nodes   = flag.Int("nodes", 50, "number of TCP nodes (paper: 50 and 100)")
		txns    = flag.Int("txns", 10000, "number of transactions (paper: 10,000)")
		runs    = flag.Int("runs", 1, "independent runs (paper: 5)")
		seed    = flag.Int64("seed", 1, "base random seed")
		schemes = flag.String("schemes", "Flash,Spider,ShortestPath", "schemes to compare (the paper's testbed set)")
		ranges  = flag.String("ranges", "1000:1500,1500:2000,2000:2500", "capacity ranges lo:hi, comma separated")
		timeout = flag.Duration("timeout", 10*time.Second, "per-message-exchange timeout")
		telAddr = flag.String("telemetry", "", "serve /metrics, /flows and pprof on this address for the run's duration")
	)
	flag.Parse()

	var (
		reg   *telemetry.Registry
		flows *telemetry.FlowLog
	)
	if *telAddr != "" {
		reg = telemetry.NewRegistry()
		telemetry.RegisterRuntimeMetrics(reg)
		flows = telemetry.NewFlowLog(4096)
		srv, err := telemetry.NewServer(*telAddr, reg, flows)
		if err != nil {
			fmt.Fprintln(os.Stderr, "flashtestbed:", err)
			os.Exit(1)
		}
		defer srv.Close()
		fmt.Printf("# telemetry on http://%s/metrics\n", srv.Addr())
	}

	schemeList := strings.Split(*schemes, ",")
	var rows []*row

	for _, rng := range strings.Split(*ranges, ",") {
		var lo, hi float64
		if _, err := fmt.Sscanf(strings.TrimSpace(rng), "%f:%f", &lo, &hi); err != nil {
			fmt.Fprintf(os.Stderr, "flashtestbed: bad range %q: %v\n", rng, err)
			os.Exit(1)
		}
		byScheme := make(map[string]*row)
		for _, s := range schemeList {
			byScheme[s] = &row{scheme: s, capRange: rng}
		}
		for run := 0; run < *runs; run++ {
			runSeed := *seed + int64(run)*7919
			if err := runOnce(*nodes, *txns, lo, hi, runSeed, *timeout, schemeList, byScheme, reg, flows); err != nil {
				fmt.Fprintln(os.Stderr, "flashtestbed:", err)
				os.Exit(1)
			}
		}
		for _, s := range schemeList {
			rows = append(rows, byScheme[s])
		}
	}

	// Normalise delays by ShortestPath's mean, as the paper does.
	spDelay := map[string]float64{}
	spMice := map[string]float64{}
	for _, r := range rows {
		if r.scheme == "ShortestPath" {
			spDelay[r.capRange] = r.delay.Mean()
			spMice[r.capRange] = r.miceDelay.Mean()
		}
	}

	fmt.Printf("# testbed: %d nodes (Watts-Strogatz), %d txns, %d run(s)\n", *nodes, *txns, *runs)
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "capacity\tscheme\tsucc.volume\tsucc.ratio\tnorm.delay\tnorm.mice.delay")
	for _, r := range rows {
		nd, nm := 1.0, 1.0
		if d := spDelay[r.capRange]; d > 0 {
			nd = r.delay.Mean() / d
		}
		if d := spMice[r.capRange]; d > 0 {
			nm = r.miceDelay.Mean() / d
		}
		fmt.Fprintf(w, "[%s)\t%s\t%.4g\t%.1f%%\t%.2f\t%.2f\n",
			r.capRange, r.scheme, r.volume.Mean(), 100*r.ratio.Mean(), nd, nm)
	}
	w.Flush()
}

// latencySink observes each payment's wall-clock latency into a
// histogram before forwarding the flow record to the next sink, so the
// testbed's /metrics exposes latency percentiles alongside /flows.
type latencySink struct {
	next telemetry.Sink
	h    *telemetry.Histogram
}

func (s latencySink) Emit(r *telemetry.FlowRecord) {
	s.h.Observe(float64(r.WallNS) / 1e9)
	if s.next != nil {
		s.next.Emit(r)
	}
}

// row accumulates one scheme's results on one capacity range.
type row struct {
	scheme           string
	capRange         string
	volume, ratio    stats.Summary
	delay, miceDelay stats.Summary // normalised against ShortestPath when printed
}

func runOnce(nodes, txns int, lo, hi float64, seed int64, timeout time.Duration,
	schemes []string, byScheme map[string]*row, reg *telemetry.Registry, flows *telemetry.FlowLog) error {
	var nodeMsgs *telemetry.Counter
	var payLat *telemetry.Histogram
	if reg != nil {
		nodeMsgs = reg.Counter("testbed_node_messages_total",
			"Protocol messages written to peer connections across all testbed nodes.")
		payLat = reg.Histogram("testbed_payment_latency_seconds",
			"Wall-clock routing latency of individual testbed payments.",
			telemetry.ExpBuckets(0.0001, 10, 8))
	}
	rng := stats.NewRNG(seed, 0x7E57)
	g, err := topo.WattsStrogatz(nodes, 4, 0.3, rng)
	if err != nil {
		return err
	}
	gen, err := trace.NewGenerator(trace.Config{
		Nodes: nodes, Graph: g, Sizes: trace.RippleSizes,
		RecurrenceProb: 0.86, ReceiverZipf: 1.6, SenderZipf: 1.0,
		PaymentsPerDay: 2000, Seed: seed,
	})
	if err != nil {
		return err
	}
	payments := gen.Generate(txns)
	threshold := core.ThresholdForMiceFraction(trace.Amounts(payments), 0.9)

	for _, scheme := range schemes {
		c, err := testbed.NewCluster(g, timeout)
		if err != nil {
			return err
		}
		balRNG := stats.NewRNG(seed, 0xCAB)
		if err := c.SetBalancesUniform(balRNG, lo, hi); err != nil {
			c.Close()
			return err
		}
		factory := func(id topo.NodeID) (route.Router, error) {
			r, err := sim.BuildRouter(sim.RouterSpec{Scheme: scheme, Threshold: threshold, Seed: seed + int64(id)})
			if sp, ok := r.(*baseline.Spider); ok {
				// The paper's prototype recomputes Spider's paths per
				// payment; disable memoisation so processing delay is
				// measured the same way.
				sp.SetCaching(false)
			}
			return r, err
		}
		tel := testbed.Telemetry{Scheme: scheme, Registry: reg}
		switch { // a nil *FlowLog must not become a non-nil Sink
		case payLat != nil:
			s := latencySink{h: payLat}
			if flows != nil {
				s.next = flows
			}
			tel.Sink = s
		case flows != nil:
			tel.Sink = flows
		}
		m, err := c.RunWorkloadObserved(factory, payments, threshold, 1, tel)
		if err != nil {
			c.Close()
			return err
		}
		if err := c.CheckConsistency(); err != nil {
			c.Close()
			return fmt.Errorf("%s: %w", scheme, err)
		}
		if nodeMsgs != nil {
			nodeMsgs.Add(float64(c.MessagesSent()))
		}
		c.Close()
		r := byScheme[scheme]
		r.volume.Add(m.SuccessVolume)
		r.ratio.Add(m.SuccessRatio())
		r.delay.Add(float64(m.MeanDelay()))
		r.miceDelay.Add(float64(m.MeanMiceDelay()))
	}
	return nil
}
