// Command flashsim replays a synthetic payment workload over a
// generated offchain network topology and compares routing schemes,
// reporting the paper's metrics (success ratio, success volume, probing
// messages, fee ratio).
//
// Static mode (the default) replays a fixed payment list, reproducing
// the paper's simulation setup. Dynamic mode (-dynamic, or -scenario
// with a catalogue name) runs the discrete-event engine instead:
// payments arrive through a seeded arrival process over a virtual
// clock, churn events open/close/rebalance channels mid-run, and the
// output includes a per-window time series. Dynamic runs with
// -workers 1 (the default) are fully deterministic: the same seed
// prints the same bytes, fingerprint included — with or without hold
// spans. A -scenario preset keeps its own settings except for the flags
// given on the command line.
//
// -service enables hold spans: each payment locks its funds for an
// exponential virtual service time between the routing decision and
// the commit, so concurrent arrivals contend for channel balance
// deterministically (see ARCHITECTURE.md). -service 0 (the default)
// keeps the historical atomic-at-dispatch behaviour.
//
// Examples:
//
//	flashsim -kind ripple -nodes 1870 -txns 2000 -scale 10
//	flashsim -kind lightning -nodes 2511 -txns 2000 -scale 20 -schemes Flash,Spider
//	flashsim -kind testbed -nodes 50 -txns 1000 -caplo 1000 -caphi 1500
//	flashsim -dynamic -arrival poisson -rate 20 -duration 60
//	flashsim -dynamic -workers 8 -retries 3           # concurrent stations with retry recovery
//	flashsim -scenario churn -nodes 200 -seed 42      # catalogue churn scenario
//	flashsim -scenario flash-crowd -duration 120 -window 10
//	flashsim -scenario contention -retries 2          # hold-span contention on the barbell
//	flashsim -scenario hub-failure -seed 7            # top-degree node fails mid-run
//	flashsim -scenario latency-slo -probeworkers 4    # virtual RTTs + HTLC deadlines, piped probes
//	flashsim -scenario griefing -deadline 0           # deadline-exhaustion attack, expiry disabled
//	flashsim -dynamic -latency 0.05 -service 1 -deadline 5   # custom latency model
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
	"text/tabwriter"

	"repro/internal/control"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// spec is what one invocation runs, as its flags leave it: the static
// replay's scenario, the dynamic scenario, and the switches choosing
// between the modes and the output.
type spec struct {
	static sim.Scenario
	dyn    sim.DynamicScenario

	dynamic, json             bool
	scenario, topology, flows string
}

// A flagField binds one flag to the spec fields it sets: fields returns
// their addresses in s, one for each mode that has the knob.
type flagField struct {
	name   string
	def    any // string, bool, int, int64 or float64
	usage  string
	fields func(s *spec) []any
}

// flagFields is flashsim's flag table. The static cell and the custom
// dynamic scenario take every flag's value, defaults included; a
// -scenario preset keeps its own values except for the flags given.
var flagFields = []flagField{
	{"kind", sim.KindRipple, "topology kind: ripple, lightning or testbed",
		func(s *spec) []any { return []any{&s.static.Kind, &s.dyn.Kind} }},
	{"topology", "", "snapshot file (LN graph JSON or capacity edge list) replacing the generated -kind topology",
		func(s *spec) []any { return []any{&s.topology} }},
	{"nodes", 1870, "number of nodes",
		func(s *spec) []any { return []any{&s.static.Nodes, &s.dyn.Nodes} }},
	{"txns", 2000, "number of transactions (static mode)",
		func(s *spec) []any { return []any{&s.static.Txns} }},
	{"scale", 10.0, "capacity scale factor",
		func(s *spec) []any { return []any{&s.static.ScaleFactor, &s.dyn.ScaleFactor} }},
	{"mice", 0.9, "fraction of payments classified as mice",
		func(s *spec) []any { return []any{&s.static.MiceFraction, &s.dyn.MiceFraction} }},
	{"schemes", strings.Join(sim.PaperSchemes, ","), "comma-separated scheme list",
		func(s *spec) []any { return []any{&s.static.Schemes, &s.dyn.Schemes} }},
	{"runs", 5, "independent runs to average (static mode)",
		func(s *spec) []any { return []any{&s.static.Runs} }},
	{"seed", int64(1), "base random seed",
		func(s *spec) []any { return []any{&s.static.Seed, &s.dyn.Seed} }},
	{"k", 0, "Flash elephant path budget (0 = paper default 20)",
		func(s *spec) []any { return []any{&s.static.Router.K, &s.dyn.Router.K} }},
	{"m", -1, "Flash mice paths per receiver (-1 = paper default 4; 0 routes mice as elephants)",
		func(s *spec) []any { return []any{&s.static.Router, &s.dyn.Router} }},
	{"caplo", 1000.0, "testbed capacity range low",
		func(s *spec) []any { return []any{&s.static.TestbedCapLo} }},
	{"caphi", 1500.0, "testbed capacity range high",
		func(s *spec) []any { return []any{&s.static.TestbedCapHi} }},
	{"workers", 1, "dynamic mode: concurrent payment stations (1 = deterministic, 0 = GOMAXPROCS); static replay is sequential and accepts only 1",
		func(s *spec) []any { return []any{&s.dyn.Workers} }},
	{"retries", 0, "re-route failed payments up to N extra times with jittered virtual backoff",
		func(s *spec) []any { return []any{&s.static.Retries, &s.dyn.Retries} }},
	{"probeworkers", 1, "Flash per-session probe pool: probe N speculative elephant candidate paths concurrently (1 = sequential Algorithm 1)",
		func(s *spec) []any { return []any{&s.static.Router.ProbeWorkers, &s.dyn.Router.ProbeWorkers} }},
	{"tablecap", 0, "bound each sender's mice routing table to N receiver entries, LRU-evicted (0 = unbounded)",
		func(s *spec) []any { return []any{&s.static.Router.TableCap, &s.dyn.Router.TableCap} }},

	{"dynamic", false, "discrete-event dynamic mode: virtual time, arrival process, churn",
		func(s *spec) []any { return []any{&s.dynamic} }},
	{"scenario", "", "dynamic scenario preset: " + strings.Join(sim.DynamicScenarioNames, ", "),
		func(s *spec) []any { return []any{&s.scenario} }},
	{"arrival", sim.ArrivalPoisson, "arrival process: poisson, flash-crowd or diurnal",
		func(s *spec) []any { return []any{&s.dyn.Arrival} }},
	{"rate", 20.0, "mean payment arrivals per virtual second",
		func(s *spec) []any { return []any{&s.dyn.Rate} }},
	{"duration", 60.0, "virtual seconds to simulate",
		func(s *spec) []any { return []any{&s.dyn.Duration} }},
	{"window", 0.0, "time-series window in virtual seconds (0 = duration/10)",
		func(s *spec) []any { return []any{&s.dyn.Window} }},
	{"churn", 0.0, "channel open/close events per virtual second",
		func(s *spec) []any { return []any{&s.dyn.ChurnRate} }},
	{"rebalance", 0.0, "channel rebalance events per virtual second",
		func(s *spec) []any { return []any{&s.dyn.RebalanceRate} }},
	{"latent", 0, "latent channels that may open mid-run",
		func(s *spec) []any { return []any{&s.dyn.LatentChannels} }},
	{"peak", 0.0, "flash-crowd rate multiplier / diurnal swing (0 = per-process default)",
		func(s *spec) []any { return []any{&s.dyn.Peak} }},
	{"service", 0.0, "mean virtual service time per payment in seconds; > 0 enables hold spans (funds stay locked until the commit event)",
		func(s *spec) []any { return []any{&s.dyn.Service} }},
	{"control", "", "adaptive control plane policies, comma-separated: raw|ewma (global threshold), sender (per-sender thresholds), width (probe width); off/empty = none (dynamic mode)",
		func(s *spec) []any { return []any{&s.dyn.Control} }},
	{"latency", 0.0, "median per-channel virtual RTT in seconds, log-normally distributed (0 = latency-free, byte-identical to the pre-latency engine)",
		func(s *spec) []any { return []any{&s.dyn.LatencyMedian} }},
	{"latencysigma", 0.0, "log-normal shape of the per-channel RTT distribution (0 = default 0.6)",
		func(s *spec) []any { return []any{&s.dyn.LatencySigma} }},
	{"deadline", 0.0, "HTLC-style hold-span expiry in virtual seconds: suspended payments whose commit cannot settle in time abort at the deadline (0 = no expiry; > 0 requires -service)",
		func(s *spec) []any { return []any{&s.dyn.Deadline} }},
	{"grieffrac", 0.0, "fraction of payments marked as griefers that pin their routes (dynamic mode, requires -service)",
		func(s *spec) []any { return []any{&s.dyn.GriefFrac} }},
	{"griefhold", 0.0, "virtual seconds a griefer holds its route instead of the drawn service time",
		func(s *spec) []any { return []any{&s.dyn.GriefHold} }},

	{"flows", "", "write one JSON flow record per completed payment to this file (observer-only; '-' = stdout)",
		func(s *spec) []any { return []any{&s.flows} }},
	{"json", false, "print dynamic results as machine-readable JSON instead of the table (dynamic mode only)",
		func(s *spec) []any { return []any{&s.json} }},
}

// assign parses a flag's text into the field p points to. Two fields
// need more than a parse: -m sets RouterSpec's M and MSet (a negative
// count keeps the paper default), and -control sets a policy, or nil
// when it is off.
func assign(p any, raw string) error {
	var err error
	switch p := p.(type) {
	case *string:
		*p = raw
	case *bool:
		*p, err = strconv.ParseBool(raw)
	case *int:
		*p, err = strconv.Atoi(raw)
	case *int64:
		*p, err = strconv.ParseInt(raw, 10, 64)
	case *float64:
		*p, err = strconv.ParseFloat(raw, 64)
	case *[]string:
		*p = splitList(raw)
	case *sim.RouterSpec:
		var m int
		m, err = strconv.Atoi(raw)
		p.M, p.MSet = max(m, 0), m >= 0
	case **control.Policy:
		var policy control.Policy
		policy, err = control.ParsePolicy(raw)
		*p = nil
		if policy.Enabled() {
			*p = &policy
		}
	default:
		panic(fmt.Sprintf("flashsim: no parser for %T", p))
	}
	return err
}

// parse registers flagFields as ordinary typed flags and parses args.
func parse(args []string, stderr io.Writer) (*flag.FlagSet, error) {
	fs := flag.NewFlagSet("flashsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	for _, f := range flagFields {
		switch def := f.def.(type) {
		case string:
			fs.String(f.name, def, f.usage)
		case bool:
			fs.Bool(f.name, def, f.usage)
		case int:
			fs.Int(f.name, def, f.usage)
		case int64:
			fs.Int64(f.name, def, f.usage)
		case float64:
			fs.Float64(f.name, def, f.usage)
		}
	}
	return fs, fs.Parse(args)
}

// apply sets the fields the flags bind in s from the parsed values:
// every flag's with all, or only the flags given on the command line,
// which is how a preset is overlaid.
func (s *spec) apply(fs *flag.FlagSet, all bool) error {
	given := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { given[f.Name] = true })
	for _, f := range flagFields {
		if !all && !given[f.name] {
			continue
		}
		for _, field := range f.fields(s) {
			if err := assign(field, fs.Lookup(f.name).Value.String()); err != nil {
				return err
			}
		}
	}
	if s.topology != "" {
		s.static.Kind = sim.KindSnapshotPrefix + s.topology
		s.dyn.Kind = s.static.Kind
	}
	return nil
}

// run is flashsim over the given arguments and output streams; it
// returns the exit code.
func run(args []string, stdout, stderr io.Writer) (code int) {
	fs, err := parse(args, stderr)
	if err == flag.ErrHelp {
		return 0
	}
	if err != nil {
		return 2
	}
	s := &spec{dyn: sim.DynamicScenario{Name: "custom"}}
	if err := s.apply(fs, true); err != nil {
		fmt.Fprintln(stderr, "flashsim:", err)
		return 2
	}
	dynamic := s.dynamic || s.scenario != ""
	if !dynamic && s.json {
		fmt.Fprintln(stderr, "flashsim: -json requires dynamic mode (-dynamic or -scenario)")
		return 2
	}
	if !dynamic && s.dyn.Workers != 1 { // only the dynamic scenario has stations
		fmt.Fprintln(stderr, "flashsim: -workers requires dynamic mode (-dynamic or -scenario); the static replay is sequential")
		return 2
	}
	if s.scenario != "" {
		preset, err := sim.NamedDynamicScenario(s.scenario, s.dyn.Kind, s.dyn.Nodes)
		if err != nil {
			fmt.Fprintln(stderr, "flashsim:", err)
			return 2
		}
		p := &spec{dyn: preset}
		if err := p.apply(fs, false); err != nil {
			fmt.Fprintln(stderr, "flashsim:", err)
			return 2
		}
		s.dyn = p.dyn
	}

	sink, closeSink, err := openFlowSink(s.flows, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "flashsim:", err)
		return 1
	}
	defer func() {
		if err := closeSink(); err != nil {
			fmt.Fprintln(stderr, "flashsim: writing flows:", err)
			code = 1
		}
	}()
	if dynamic {
		s.dyn.FlowSink = sink
		return runDynamic(s.dyn, s.json, stdout, stderr)
	}
	s.static.FlowSink = sink
	return runStatic(s.static, stdout, stderr)
}

// runStatic replays the static cell and prints one row per scheme.
func runStatic(sc sim.Scenario, stdout, stderr io.Writer) int {
	results, err := sim.RunScenario(sc)
	if err != nil {
		fmt.Fprintln(stderr, "flashsim:", err)
		return 1
	}
	fmt.Fprintf(stdout, "# kind=%s nodes=%d txns=%d scale=%g mice=%.0f%% runs=%d seed=%d retries=%d probeworkers=%d\n",
		sc.Kind, sc.Nodes, sc.Txns, sc.ScaleFactor, 100*sc.MiceFraction, sc.Runs, sc.Seed, sc.Retries, sc.Router.ProbeWorkers)
	w := tabwriter.NewWriter(stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "scheme\tsucc.ratio\tsucc.volume\tprobe msgs\tfee ratio\tmean delay")
	for _, r := range results {
		fmt.Fprintf(w, "%s\t%.1f%%\t%.4g\t%.0f\t%.3f%%\t%v\n",
			r.Scheme,
			100*r.Mean(sim.Metrics.SuccessRatio),
			r.Mean(func(m sim.Metrics) float64 { return m.SuccessVolume }),
			r.Mean(func(m sim.Metrics) float64 { return float64(m.ProbeMessages) }),
			100*r.Mean(sim.Metrics.FeeRatio),
			r.Runs[0].MeanDelay().Round(1000))
	}
	w.Flush()
	return 0
}

// runDynamic executes the discrete-event mode and prints the
// per-window time series plus aggregates. All output is derived from
// virtual time and seeded randomness, so identical invocations print
// identical bytes (workers ≤ 1) — telemetry sinks included, which only
// observe. jsonMode switches the report from the table renderer to one
// indented JSON document per scheme.
func runDynamic(sc sim.DynamicScenario, jsonMode bool, stdout, stderr io.Writer) int {
	if sc.Workers == 0 {
		sc.Workers = runtime.GOMAXPROCS(0)
	}
	results, err := sim.RunDynamicScenario(sc)
	if err != nil {
		fmt.Fprintln(stderr, "flashsim:", err)
		return 1
	}

	if jsonMode {
		for _, r := range results {
			if err := sim.WriteDynamicJSON(stdout, r.Scheme, r.Result); err != nil {
				fmt.Fprintln(stderr, "flashsim:", err)
				return 1
			}
		}
		return 0
	}
	fmt.Fprintf(stdout, "# dynamic scenario=%s kind=%s nodes=%d scale=%g arrival=%s rate=%g/s duration=%gs service=%gs churn=%g/s rebalance=%g/s latent=%d seed=%d workers=%d retries=%d probeworkers=%d",
		sc.Name, sc.Kind, sc.Nodes, sc.ScaleFactor, sc.Arrival, sc.Rate, sc.Duration, sc.Service,
		sc.ChurnRate, sc.RebalanceRate, sc.LatentChannels, sc.Seed, sc.Workers, sc.Retries, sc.Router.ProbeWorkers)
	// The control-plane header segment appears only when a policy is
	// live, so control-free invocations print the historical bytes.
	showThr := sc.Control != nil && sc.Control.Enabled()
	if showThr {
		fmt.Fprintf(stdout, " control=%s", sc.Control.Spec())
	}
	// The latency-model header segment appears only when the model is
	// live, so latency-free invocations print the historical bytes.
	if sc.LatencyMedian > 0 || sc.Deadline > 0 || sc.GriefFrac > 0 {
		fmt.Fprintf(stdout, " latency=%gs sigma=%g deadline=%gs grief=%g/%gs",
			sc.LatencyMedian, sc.LatencySigma, sc.Deadline, sc.GriefFrac, sc.GriefHold)
	}
	fmt.Fprintln(stdout)
	for _, r := range results {
		sim.WriteDynamicResult(stdout, r.Scheme, r.Result, showThr)
	}
	return 0
}

// openFlowSink opens the -flows destination: a buffered JSONL sink on
// the given path ('-' = stdout), or a nil sink (one branch on the hot
// path) when the flag is unset. The returned close function flushes
// and reports sink errors.
func openFlowSink(path string, stdout io.Writer) (telemetry.Sink, func() error, error) {
	if path == "" {
		return nil, func() error { return nil }, nil
	}
	var (
		w   io.Writer = stdout
		f   *os.File
		err error
	)
	if path != "-" {
		if f, err = os.Create(path); err != nil {
			return nil, nil, err
		}
		w = f
	}
	bw := bufio.NewWriterSize(w, 1<<16)
	sink := telemetry.NewJSONLSink(bw)
	return sink, func() error {
		ferr := sink.Close() // drain the async writer before flushing
		if berr := bw.Flush(); ferr == nil {
			ferr = berr
		}
		if f != nil {
			if cerr := f.Close(); ferr == nil {
				ferr = cerr
			}
		}
		return ferr
	}, nil
}

func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if p := strings.TrimSpace(part); p != "" {
			out = append(out, p)
		}
	}
	return out
}
