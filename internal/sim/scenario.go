package sim

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/pcn"
	"repro/internal/route"
	"repro/internal/stats"
	"repro/internal/topo"
	"repro/internal/trace"
)

// Topology kinds understood by BuildNetwork.
const (
	KindRipple    = "ripple"    // scale-free, Ripple crawl density, $-denominated
	KindLightning = "lightning" // scale-free, Lightning snapshot density, satoshi
	KindTestbed   = "testbed"   // Watts–Strogatz small world (paper §5.2)

	// KindSnapshotPrefix marks a kind of the form "snapshot:<path>":
	// the topology and channel capacities are ingested from the file
	// (LN channel-graph JSON or a Ripple capacity edge list — see
	// topo.LoadSnapshotFile) instead of generated, and the scenario's
	// node count is ignored. Balances split each ingested capacity
	// evenly per direction; fees follow the paper's model, seeded.
	KindSnapshotPrefix = "snapshot:"
)

// Scheme names understood by NewRouter.
const (
	SchemeFlash         = "Flash"
	SchemeFlashNoOpt    = "Flash-NoOpt"
	SchemeSpider        = "Spider"
	SchemeSpeedyMurmurs = "SpeedyMurmurs"
	SchemeShortestPath  = "ShortestPath"
	SchemeMaxFlow       = "MaxFlow-FullProbe"
)

// PaperSchemes is the comparison set of Figures 6 and 7.
var PaperSchemes = []string{SchemeFlash, SchemeSpider, SchemeSpeedyMurmurs, SchemeShortestPath}

// Arrival-process names understood by Scenario.Arrival.
const (
	// ArrivalReplay replays Txns payments from the trace at its fixed
	// spacing (43.2 virtual seconds at 2,000 payments a day): the
	// paper's simulation setup (§4.1).
	ArrivalReplay     = "replay"
	ArrivalPoisson    = "poisson"
	ArrivalFlashCrowd = "flash-crowd"
	ArrivalDiurnal    = "diurnal"
)

// Scenario describes one experiment cell: a topology, a workload
// arriving through one arrival process, an optional churn model, and
// the schemes to compare under them. The paper's base cell is
// DefaultScenario's replay; NamedScenario's catalogue runs timed
// arrivals under churn, hold spans, latency and attacks.
//
// The engine settings are the embedded DynamicOptions, so they read as
// sc.Service, sc.Retries, sc.Seed, sc.Control and so on, and the Flash
// knobs are Router's (sc.Router.K, sc.Router.ProbeWorkers,
// sc.Router.TableCap, …). Run sets Router.Scheme, Router.Threshold and
// Router.Seed itself for each scheme, and seeds every draw of run r —
// topology, funding, workload, router and engine — with Seed + 7919·r.
// A policy in Control that leaves MiceFraction at 0 tracks the
// scenario's MiceFraction.
type Scenario struct {
	Name  string // catalogue label (informational)
	Kind  string // KindRipple, KindLightning, KindTestbed or "snapshot:<path>"
	Nodes int    // topology size (paper: 1870 Ripple / 2511 Lightning / 50–100 testbed); ignored by snapshot kinds

	// Fixture, when non-empty, replaces the Kind topology and workload
	// with a synthetic fixture under a timed arrival. FixtureBarbell is
	// the BuildContention barbell: every payment crosses one bridge
	// channel, alternating direction, so committed flow nets out and
	// failures are attributable to in-flight holds — the contention
	// scenario.
	Fixture string

	// HubFailureFrac, when positive, closes every channel of the
	// highest-degree node at this fraction of Duration — the targeted
	// hub-failure scenario. In-flight holds crossing the hub abort when
	// their spans resume (DynamicResult.SpanAborts counts them).
	HubFailureFrac float64

	ScaleFactor float64 // capacity scale factor (Figures 6/7 sweep this)

	// MiceFraction sets Flash's elephant threshold as a workload
	// quantile (paper: 0.9 — 90% of payments are mice).
	MiceFraction float64

	// Arrival is ArrivalReplay, ArrivalPoisson (the default for ""),
	// ArrivalFlashCrowd or ArrivalDiurnal. A replay runs Txns payments
	// and spans the trace, so it ignores Duration and Rate; the timed
	// arrivals run for Duration virtual seconds at a mean Rate.
	Arrival  string
	Txns     int     // ArrivalReplay: payments to replay; at least one
	Duration float64 // timed arrivals: virtual seconds simulated; positive and finite
	Rate     float64 // timed arrivals: mean payments per virtual second; positive and finite
	Peak     float64 // flash-crowd rate multiplier / diurnal relative swing in [0, 1)

	// ChurnRate and RebalanceRate are channel open/close and rebalance
	// events per virtual second; 0 is off, and a negative, NaN or
	// infinite rate is an error.
	ChurnRate      float64
	RebalanceRate  float64
	LatentChannels int // extra channels that may open mid-run

	// DemandShiftFactor, when positive, rescales payment amounts by
	// this factor at DemandShiftFrac · Duration (a fraction so the
	// shift tracks Duration overrides; 0 or out-of-range means
	// mid-run).
	DemandShiftFactor float64
	DemandShiftFrac   float64

	// FeeShiftFactor, when positive, multiplies the fee schedules of
	// every channel of the top-degree node by this factor at mid-run
	// (Duration / 2) — the fee-war scenario: the network's busiest hub
	// repricing. Fee-sensitive routing (Flash's LP) shifts volume
	// around the hub; fee-blind schemes pay up.
	FeeShiftFactor float64

	// LatencyMedian, when positive, assigns every channel a virtual RTT
	// drawn log-normally with this median (seconds) and shape
	// LatencySigma (default 0.6 when unset) from a scenario-seeded
	// stream — the latency model every scheme replays identically.
	// Zero leaves the network latency-free: every event time is
	// byte-identical to the pre-latency engine.
	LatencyMedian float64
	LatencySigma  float64

	Schemes []string // nil runs PaperSchemes
	Runs    int      // independent repetitions to average; 0 runs one

	// Router carries the Flash knobs every scheme of the cell shares.
	Router RouterSpec

	// DynamicOptions are the engine settings every scheme's run uses;
	// Run replaces Seed with each run's seed.
	DynamicOptions
}

// DefaultScenario returns the paper's base simulation cell for a
// topology kind: a replay of 2000 transactions, capacity scale factor
// 10, 90% mice, all four schemes, 5 runs.
func DefaultScenario(kind string, nodes int) Scenario {
	return Scenario{
		Kind:           kind,
		Nodes:          nodes,
		Arrival:        ArrivalReplay,
		Txns:           2000,
		ScaleFactor:    10,
		MiceFraction:   0.9,
		Schemes:        PaperSchemes,
		Runs:           5,
		DynamicOptions: DynamicOptions{Seed: 1},
	}
}

// SchemeResult collects one scheme's runs of a scenario, in run order.
type SchemeResult struct {
	Scheme string
	Runs   []DynamicResult
}

// Mean applies f to every run's aggregate metrics and returns the mean.
func (r SchemeResult) Mean(f func(Metrics) float64) float64 {
	if len(r.Runs) == 0 {
		return 0
	}
	sum := 0.0
	for _, res := range r.Runs {
		sum += f(res.Aggregate)
	}
	return sum / float64(len(r.Runs))
}

// Run executes a scenario: Runs repetitions, each building its funded
// network, churn schedule, elephant threshold and workload once from
// the run seed. Every scheme then runs that workload over its own copy
// of the network under the identical churn schedule, so scheme results
// are directly comparable.
func Run(sc Scenario) ([]SchemeResult, error) {
	if p := sc.Control; p != nil && p.MiceFraction == 0 && sc.MiceFraction > 0 && sc.MiceFraction < 1 {
		tracked := *p // never mutate the caller's policy
		tracked.MiceFraction = sc.MiceFraction
		sc.Control = &tracked
	}
	if err := sc.validate(); err != nil {
		return nil, err
	}
	if len(sc.Schemes) == 0 {
		sc.Schemes = PaperSchemes
	}
	results := make([]SchemeResult, len(sc.Schemes))
	for run := 0; run < max(sc.Runs, 1); run++ {
		c, err := sc.newCell(sc.Seed + int64(run)*7919)
		if err != nil {
			return nil, err
		}
		for i, scheme := range sc.Schemes {
			res, err := sc.runScheme(c, scheme)
			if err != nil {
				return nil, err
			}
			results[i].Scheme = scheme
			results[i].Runs = append(results[i].Runs, res)
		}
	}
	return results, nil
}

// validate rejects a scenario that could only run as something other
// than what it says, before anything is built from it: a negative run
// count, a capacity scale factor that is negative or not finite, a mice
// fraction outside [0, 1], negative retries, a negative Flash path
// budget, table cap or probe width (each would run as its zero value's
// default), an unknown fixture, churn and rebalance rates that are
// negative or not finite (an infinite rate would draw zero gaps
// forever), a latency median or sigma that is negative or not finite
// (each would run latency-free or at the default sigma; 0 keeps those
// meanings), an arrival that cannot run, and invalid engine options.
func (sc Scenario) validate() error {
	switch {
	case sc.Runs < 0:
		return fmt.Errorf("sim: runs must be non-negative, got %d", sc.Runs)
	case !(sc.ScaleFactor >= 0) || math.IsInf(sc.ScaleFactor, 1):
		return fmt.Errorf("sim: capacity scale factor must be non-negative and finite, got %v", sc.ScaleFactor)
	case !(sc.MiceFraction >= 0 && sc.MiceFraction <= 1):
		return fmt.Errorf("sim: mice fraction must lie in [0, 1], got %v", sc.MiceFraction)
	case sc.Retries < 0:
		return fmt.Errorf("sim: retries must be non-negative, got %d", sc.Retries)
	case sc.Router.K < 0:
		return fmt.Errorf("sim: elephant path budget k must be non-negative, got %d", sc.Router.K)
	case sc.Router.TableCap < 0:
		return fmt.Errorf("sim: table cap must be non-negative, got %d", sc.Router.TableCap)
	case sc.Router.ProbeWorkers < 0:
		return fmt.Errorf("sim: probe workers must be non-negative, got %d", sc.Router.ProbeWorkers)
	case sc.Fixture != "" && sc.Fixture != FixtureBarbell:
		return fmt.Errorf("sim: unknown fixture %q", sc.Fixture)
	}
	for _, f := range [...]struct {
		name string
		v    float64
	}{
		{"churn rate", sc.ChurnRate}, {"rebalance rate", sc.RebalanceRate},
		{"latency median", sc.LatencyMedian}, {"latency sigma", sc.LatencySigma},
	} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) || f.v < 0 {
			return fmt.Errorf("sim: scenario %s must be non-negative and finite, got %v", f.name, f.v)
		}
	}
	if err := sc.validateArrival(); err != nil {
		return err
	}
	return sc.DynamicOptions.validate()
}

// validateArrival checks the arrival: a replay needs at least one
// payment and a topology of its own to draw them from; a timed arrival
// a positive, finite duration and rate and a process that validates.
func (sc Scenario) validateArrival() error {
	if sc.Arrival == ArrivalReplay {
		switch {
		case sc.Txns < 1:
			return fmt.Errorf("sim: a replay needs at least one payment, got %d", sc.Txns)
		case sc.Fixture != "":
			return fmt.Errorf("sim: the %s fixture draws its own payments, so it needs a timed arrival", sc.Fixture)
		}
		return nil
	}
	for _, f := range [...]struct {
		name string
		v    float64
	}{{"duration", sc.Duration}, {"arrival rate", sc.Rate}} {
		if !(f.v > 0) || math.IsInf(f.v, 1) {
			return fmt.Errorf("sim: scenario %s must be positive and finite, got %v", f.name, f.v)
		}
	}
	arr, err := sc.arrivalProcess()
	if err != nil {
		return err
	}
	return arr.Validate()
}

// arrivalProcess builds a timed arrival's process.
func (sc Scenario) arrivalProcess() (trace.ArrivalProcess, error) {
	switch sc.Arrival {
	case ArrivalPoisson, "":
		return trace.Poisson{Rate: sc.Rate}, nil
	case ArrivalFlashCrowd:
		peak := sc.Peak
		if peak <= 0 {
			peak = 6 // 0 is the unset sentinel; explicit ≤1 (no surge) is honoured
		}
		return trace.FlashCrowd{
			BaseRate: sc.Rate,
			Peak:     peak,
			Start:    sc.Duration * 0.4,
			Duration: sc.Duration * 0.2,
		}, nil
	case ArrivalDiurnal:
		swing := sc.Peak
		if swing <= 0 {
			swing = 0.6 // unset
		}
		return trace.Diurnal{MeanRate: sc.Rate, Swing: swing, Period: sc.Duration / 2}, nil
	default:
		return nil, fmt.Errorf("sim: unknown arrival process %q", sc.Arrival)
	}
}

// A cell is one run's inputs, built once from the run seed and shared
// read-only by every scheme of the run.
type cell struct {
	seed      int64
	horizon   float64         // virtual seconds the engine runs
	threshold float64         // the elephant threshold, for routing and metrics
	churn     []event.Event   // the churn schedule every scheme replays
	payments  []trace.Payment // the replay's payments; nil for a timed arrival

	net    *pcn.Network                        // the funded network; each scheme runs on a clone
	source func() (trace.PaymentSource, error) // a fresh payment stream
}

// newCell builds one run's cell: the frozen topology (latent channels
// included), its funded network under the latency model, the churn
// schedule, the elephant threshold and, for a replay, the payments.
// The threshold is the MiceFraction quantile of the workload's first
// payments: all Txns of a replay, or a sample of the timed stream's
// expected count clamped to [200, 4000], drawn by an identically
// seeded generator, so it is the prefix of the payments the lazy
// stream will produce.
func (sc Scenario) newCell(seed int64) (*cell, error) {
	if sc.Fixture == FixtureBarbell {
		return sc.barbellCell(seed)
	}
	g, caps, err := buildTopology(sc.Kind, sc.Nodes, seed)
	if err != nil {
		return nil, err
	}
	churnRNG := newChurnRNG(seed)
	latent := addLatentChannels(g, sc.LatentChannels, churnRNG)
	net, err := fundNetwork(sc.Kind, g, caps, latent, sc.ScaleFactor, seed)
	if err != nil {
		return nil, err
	}
	c := &cell{seed: seed, horizon: sc.Duration, net: sc.withLatency(net, seed)}
	gen, err := workloadFor(sc.Kind, g, seed)
	if err != nil {
		return nil, err
	}
	n := min(max(int(sc.Rate*sc.Duration), 200), 4000)
	if sc.Arrival == ArrivalReplay {
		n = sc.Txns
	}
	sample := gen.Generate(n)
	c.threshold = core.ThresholdForMiceFraction(trace.Amounts(sample), sc.MiceFraction)
	if sc.Arrival == ArrivalReplay {
		c.payments = sample
		c.horizon = (sample[n-1].Time + 1) * trace.SecondsPerDay
		sc.Duration = c.horizon // the churn schedule spans the trace
		c.source = func() (trace.PaymentSource, error) { return trace.NewReplayStream(c.payments), nil }
	} else {
		arr, err := sc.arrivalProcess()
		if err != nil {
			return nil, err
		}
		c.source = func() (trace.PaymentSource, error) {
			gen, err := workloadFor(sc.Kind, g, seed)
			if err != nil {
				return nil, err
			}
			return trace.NewStream(gen, arr, seed)
		}
	}
	c.churn = buildChurnSchedule(sc, net, latent, churnRNG)
	return c, nil
}

// withLatency assigns the scenario's latency model to net and returns
// it. The model covers latent channels too, so channels that first
// open mid-run carry RTTs; its RNG stream is independent of every
// other draw, so turning latency on never perturbs topology, balances,
// churn or workload.
func (sc Scenario) withLatency(net *pcn.Network, seed int64) *pcn.Network {
	if sc.LatencyMedian > 0 {
		sigma := sc.LatencySigma
		if sigma == 0 {
			sigma = 0.6
		}
		net.AssignLatenciesLogNormal(newLatencyRNG(seed), sc.LatencyMedian, sigma)
	}
	return net
}

// runScheme runs one scheme over a cell: a clone of its funded network,
// a fresh router and payment stream, and the engine seeded with the
// run seed.
func (sc Scenario) runScheme(c *cell, scheme string) (DynamicResult, error) {
	net := c.net.Clone()
	spec := sc.Router
	spec.Scheme, spec.Threshold, spec.Seed = scheme, c.threshold, c.seed
	r, err := BuildRouter(spec)
	if err != nil {
		return DynamicResult{}, err
	}
	src, err := c.source()
	if err != nil {
		return DynamicResult{}, err
	}
	opts := sc.DynamicOptions
	opts.Seed = c.seed
	res, err := RunDynamic(net, r, src, c.horizon, c.churn, c.threshold, opts)
	if err != nil {
		return res, fmt.Errorf("%s: %w", scheme, err)
	}
	return res, nil
}

// BuildNetwork constructs a funded network of the given kind. Balances
// follow the paper's setup: Ripple channels are funded log-normally with
// median ≈$250 split evenly per direction (the paper redistributes
// Ripple funds evenly); Lightning channels with median ≈500,000 satoshi
// and a skewed random split (the crawled distribution is used directly);
// the testbed kind draws uniform capacities in [1000, 1500), the first
// of §5.2's intervals. Fees follow the Figure 9 model on all kinds.
func BuildNetwork(kind string, nodes int, scale float64, seed int64) (*pcn.Network, error) {
	g, caps, err := buildTopology(kind, nodes, seed)
	if err != nil {
		return nil, err
	}
	return fundNetwork(kind, g, caps, nil, scale, seed)
}

// fundNetwork funds a fresh network over g as BuildNetwork does, with
// the latent channels — the closed ones a scenario's churn may open —
// closed, so every base channel's balances and fees are what
// BuildNetwork gives it. A snapshot kind's capacities come from caps,
// split evenly per direction.
func fundNetwork(kind string, g *topo.Graph, caps []float64, latent []topo.Edge, scale float64, seed int64) (*pcn.Network, error) {
	net := pcn.New(g)
	for _, e := range latent {
		if err := net.SetChannelOpen(e.A, e.B, false); err != nil {
			return nil, err
		}
	}
	balRNG := stats.NewRNG(seed, 0xBA1A)
	switch kind {
	case KindRipple:
		net.AssignBalancesLogNormal(balRNG, 250, 1.5, true)
	case KindLightning:
		net.AssignBalancesLogNormal(balRNG, 500000, 2.0, false)
	case KindTestbed:
		net.AssignBalancesUniform(balRNG, 1000, 1500)
	default: // a snapshot kind: buildTopology rejected every other
		if err := net.AssignBalancesFromCapacities(caps); err != nil {
			return nil, err
		}
	}
	if scale > 0 && scale != 1 {
		net.ScaleBalances(scale)
	}
	net.AssignFeesPaper(stats.NewRNG(seed, 0xFEE5))
	return net, nil
}

// buildTopology draws a kind's topology from the seed, or loads a
// snapshot kind's file together with its per-channel capacities. The
// graph comes back unfrozen.
func buildTopology(kind string, nodes int, seed int64) (*topo.Graph, []float64, error) {
	if path, ok := strings.CutPrefix(kind, KindSnapshotPrefix); ok {
		snap, err := topo.LoadSnapshotFile(path)
		if err != nil {
			return nil, nil, fmt.Errorf("sim: snapshot topology: %w", err)
		}
		return snap.Graph, snap.Capacity, nil
	}
	rng := stats.NewRNG(seed, 0x70B0)
	var (
		g   *topo.Graph
		err error
	)
	switch kind {
	case KindRipple:
		g, err = topo.RippleLike(nodes, rng)
	case KindLightning:
		g, err = topo.LightningLike(nodes, rng)
	case KindTestbed:
		g, err = topo.WattsStrogatz(nodes, 4, 0.3, rng)
	default:
		err = fmt.Errorf("sim: unknown topology kind %q", kind)
	}
	return g, nil, err
}

// workloadFor builds the payment generator matching a topology kind:
// Ripple trace sizes for Ripple and the testbed (the paper drives the
// testbed with Ripple volumes), Bitcoin sizes for Lightning (with
// Ripple-style sender/receiver structure, as the paper maps Ripple pairs
// onto the Lightning topology).
func workloadFor(kind string, g *topo.Graph, seed int64) (*trace.Generator, error) {
	cfg := trace.DefaultConfig(g.NumNodes())
	cfg.Graph = g
	cfg.Seed = seed
	// Lightning-denominated topologies draw Bitcoin payment sizes: the
	// generated Lightning kind, and ingested snapshots in the LN JSON
	// format (".json" paths).
	if kind == KindLightning ||
		(strings.HasPrefix(kind, KindSnapshotPrefix) && topo.IsLNGraphPath(kind)) {
		cfg.Sizes = trace.BitcoinSizes
	}
	return trace.NewGenerator(cfg)
}

// RouterSpec names a scheme together with every knob a scenario can
// turn on it. The zero value of each field means "paper default";
// non-Flash schemes ignore the Flash fields. BuildRouter is the single
// construction path, and Scenario carries a RouterSpec, so a new Flash
// knob only needs a field here (and a flashsim flag, if the command
// line should reach it).
type RouterSpec struct {
	Scheme    string
	Threshold float64 // Flash elephant threshold

	K    int  // elephant path budget override (> 0; 0 keeps the paper's 20)
	M    int  // mice table paths override (> 0, or MSet)
	MSet bool // honour M even when zero (Figure 11's m=0)

	FixedMiceOrder bool // ablation: deterministic mice path order
	ProbeAllK      bool // ablation: no early exit in Algorithm 1
	ProbeWorkers   int  // Flash probe width: candidates per elephant round (0 or 1 sequential)

	// TableCap bounds each sender shard's mice routing table to this
	// many receiver entries, LRU-evicted (core.Config.TableCap). 0 — the
	// default — keeps tables unbounded, byte-identical to the historical
	// engine.
	TableCap int

	Seed int64
}

// BuildRouter instantiates the scheme a spec describes.
func BuildRouter(spec RouterSpec) (route.Router, error) {
	mkFlash := func(noOpt bool) route.Router {
		cfg := core.DefaultConfig(spec.Threshold)
		if spec.K > 0 {
			cfg.K = spec.K
		}
		if spec.M > 0 || spec.MSet {
			cfg.M = spec.M
		}
		cfg.DisableFeeOpt = noOpt
		cfg.FixedMiceOrder = spec.FixedMiceOrder
		cfg.ProbeAllK = spec.ProbeAllK
		cfg.ProbeWorkers = spec.ProbeWorkers
		cfg.TableCap = spec.TableCap
		cfg.Seed = spec.Seed
		return core.New(cfg)
	}
	switch spec.Scheme {
	case SchemeFlash:
		return mkFlash(false), nil
	case SchemeFlashNoOpt:
		return mkFlash(true), nil
	case SchemeSpider:
		return baseline.NewSpider(), nil
	case SchemeSpeedyMurmurs:
		return baseline.NewSpeedyMurmurs(), nil
	case SchemeShortestPath:
		return baseline.NewShortestPath(), nil
	case SchemeMaxFlow:
		return baseline.NewMaxFlowFullProbe(), nil
	default:
		return nil, fmt.Errorf("sim: unknown scheme %q", spec.Scheme)
	}
}
