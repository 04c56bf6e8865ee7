package sim

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/pcn"
	"repro/internal/route"
	"repro/internal/stats"
	"repro/internal/telemetry"
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

// Scenario describes one experiment cell: a topology, a workload and the
// schemes to compare on it.
type Scenario struct {
	Kind        string  // KindRipple, KindLightning or KindTestbed
	Nodes       int     // topology size (paper: 1870 Ripple / 2511 Lightning / 50–100 testbed)
	Txns        int     // number of payments to replay
	ScaleFactor float64 // capacity scale factor (Figures 6/7 sweep this)

	// MiceFraction sets Flash's elephant threshold as a workload
	// quantile (paper: 0.9 — 90% of payments are mice).
	MiceFraction float64

	// Router carries the Flash knobs every scheme of the cell shares:
	// path counts (Router.K, Router.M), the ablation switches,
	// Router.ProbeWorkers and Router.TableCap. RunScenario sets
	// Router.Scheme, Router.Threshold and Router.Seed itself for each
	// scheme and run, so whatever a caller leaves there is ignored.
	Router RouterSpec

	// TestbedCapLo/Hi set the uniform capacity range for KindTestbed
	// (paper: [1000,1500), [1500,2000), [2000,2500) USD).
	TestbedCapLo float64
	TestbedCapHi float64

	// Retries re-routes failed payments up to this many extra times,
	// each after the engine's virtual backoff (0.05·2^a·[0.5,1.5) s
	// after failed attempt a). Replayed arrivals are 43.2 virtual s
	// apart, so up to 9 retries settle before the next payment arrives.
	Retries int

	// FlowSink, when non-nil, receives one telemetry.FlowRecord per
	// completed payment across every scheme and run. Observer-only;
	// metrics are unchanged.
	FlowSink telemetry.Sink

	Schemes []string
	Runs    int
	Seed    int64
}

// DefaultScenario returns the paper's base simulation cell for a
// topology kind: 2000 transactions, capacity scale factor 10, 90% mice,
// all four schemes, 5 runs.
func DefaultScenario(kind string, nodes int) Scenario {
	return Scenario{
		Kind:         kind,
		Nodes:        nodes,
		Txns:         2000,
		ScaleFactor:  10,
		MiceFraction: 0.9,
		Schemes:      PaperSchemes,
		Runs:         5,
		Seed:         1,
	}
}

// BuildNetwork constructs a funded network of the given kind. Balances
// follow the paper's setup: Ripple channels are funded log-normally with
// median ≈$250 split evenly per direction (the paper redistributes
// Ripple funds evenly); Lightning channels with median ≈500,000 satoshi
// and a skewed random split (the crawled distribution is used directly);
// the testbed kind draws uniform capacities in [lo, hi). Fees follow the
// Figure 9 model on all kinds.
func BuildNetwork(kind string, nodes int, scale float64, capLo, capHi float64, seed int64) (*pcn.Network, error) {
	if path, ok := strings.CutPrefix(kind, KindSnapshotPrefix); ok {
		return buildNetworkFromSnapshot(path, scale, seed)
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
		return nil, fmt.Errorf("sim: unknown topology kind %q", kind)
	}
	if err != nil {
		return nil, err
	}
	net := pcn.New(g)
	balRNG := stats.NewRNG(seed, 0xBA1A)
	switch kind {
	case KindRipple:
		net.AssignBalancesLogNormal(balRNG, 250, 1.5, true)
	case KindLightning:
		net.AssignBalancesLogNormal(balRNG, 500000, 2.0, false)
	case KindTestbed:
		if capHi <= capLo {
			capLo, capHi = 1000, 1500
		}
		net.AssignBalancesUniform(balRNG, capLo, capHi)
	}
	if scale > 0 && scale != 1 {
		net.ScaleBalances(scale)
	}
	net.AssignFeesPaper(stats.NewRNG(seed, 0xFEE5))
	return net, nil
}

// buildNetworkFromSnapshot funds a network from an ingested snapshot:
// capacities come from the file (split evenly per direction), fees from
// the paper's seeded model, and the capacity scale factor applies as on
// generated topologies.
func buildNetworkFromSnapshot(path string, scale float64, seed int64) (*pcn.Network, error) {
	snap, err := topo.LoadSnapshotFile(path)
	if err != nil {
		return nil, fmt.Errorf("sim: snapshot topology: %w", err)
	}
	net := pcn.New(snap.Graph)
	if err := net.AssignBalancesFromCapacities(snap.Capacity); err != nil {
		return nil, err
	}
	if scale > 0 && scale != 1 {
		net.ScaleBalances(scale)
	}
	net.AssignFeesPaper(stats.NewRNG(seed, 0xFEE5))
	return net, nil
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
// construction path, and Scenario and DynamicScenario carry a
// RouterSpec, so a new Flash knob only needs a field here (and a
// flashsim flag, if the command line should reach it).
type RouterSpec struct {
	Scheme    string
	Threshold float64 // Flash elephant threshold

	K    int  // elephant path budget override (> 0)
	M    int  // mice table paths override (> 0, or MSet)
	MSet bool // honour M even when zero (Figure 11's m=0)

	FixedMiceOrder bool // ablation: deterministic mice path order
	ProbeAllK      bool // ablation: no early exit in Algorithm 1
	ProbeWorkers   int  // Flash probe width: candidates per elephant round (≤ 1 sequential)

	// TableCap bounds each sender shard's mice routing table to this
	// many receiver entries, LRU-evicted (core.Config.TableCap). ≤ 0 —
	// the default — keeps tables unbounded, byte-identical to the
	// historical engine.
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
		return baseline.NewSpider(4), nil
	case SchemeSpeedyMurmurs:
		return baseline.NewSpeedyMurmurs(3), nil
	case SchemeShortestPath:
		return baseline.NewShortestPath(), nil
	case SchemeMaxFlow:
		return baseline.NewMaxFlowFullProbe(), nil
	default:
		return nil, fmt.Errorf("sim: unknown scheme %q", spec.Scheme)
	}
}

// SchemeResult collects the per-run metrics of one scheme in a
// scenario.
type SchemeResult struct {
	Scheme string
	Runs   []Metrics
}

// Mean applies f to every run and returns the mean.
func (r SchemeResult) Mean(f func(Metrics) float64) float64 {
	if len(r.Runs) == 0 {
		return 0
	}
	sum := 0.0
	for _, m := range r.Runs {
		sum += f(m)
	}
	return sum / float64(len(r.Runs))
}

// RunScenario executes a scenario: Runs independent repetitions, each
// with a fresh topology, balance assignment and workload (all seeded),
// replaying the identical payment sequence once per scheme from
// identical starting balances: one network, restored between schemes.
func RunScenario(sc Scenario) ([]SchemeResult, error) {
	if err := sc.validate(); err != nil {
		return nil, err
	}
	if sc.Runs < 1 {
		sc.Runs = 1
	}
	if sc.MiceFraction == 0 {
		sc.MiceFraction = 0.9
	}
	results := make([]SchemeResult, len(sc.Schemes))
	for i, s := range sc.Schemes {
		results[i] = SchemeResult{Scheme: s}
	}
	for run := 0; run < sc.Runs; run++ {
		runSeed := sc.Seed + int64(run)*7919
		net, payments, threshold, err := sc.buildCell(runSeed)
		if err != nil {
			return nil, err
		}
		snap := net.Snapshot()
		for i, scheme := range sc.Schemes {
			if err := net.Restore(snap); err != nil {
				return nil, err
			}
			m, err := sc.replayScheme(net, scheme, payments, threshold, runSeed)
			if err != nil {
				return nil, err
			}
			results[i].Runs = append(results[i].Runs, m)
		}
	}
	return results, nil
}

// validate rejects a static cell that could only run as something
// other than what it says: the checks shared with DynamicScenario, no
// payments, a negative run count, or testbed capacities that are not
// both zero (the default range) or a finite range with 0 ≤ lo < hi.
func (sc Scenario) validate() error {
	lo, hi := sc.TestbedCapLo, sc.TestbedCapHi
	switch {
	case sc.Txns < 1:
		return fmt.Errorf("sim: a static cell needs at least one payment, got %d", sc.Txns)
	case sc.Runs < 0:
		return fmt.Errorf("sim: runs must be non-negative, got %d", sc.Runs)
	case (lo != 0 || hi != 0) && !(0 <= lo && lo < hi && !math.IsInf(hi, 1)):
		return fmt.Errorf("sim: testbed capacity range [%v, %v) must be finite with 0 ≤ low < high", lo, hi)
	}
	return checkCell(sc.ScaleFactor, sc.MiceFraction, sc.Retries)
}

// checkCell rejects the settings a static cell and a dynamic scenario
// share: a capacity scale factor that is negative or not finite, a mice
// fraction outside [0, 1] (0 stands for the paper's 0.9) and a negative
// retry count.
func checkCell(scale, mice float64, retries int) error {
	switch {
	case !(scale >= 0) || math.IsInf(scale, 1):
		return fmt.Errorf("sim: capacity scale factor must be non-negative and finite, got %v", scale)
	case !(mice >= 0 && mice <= 1):
		return fmt.Errorf("sim: mice fraction must lie in [0, 1], got %v", mice)
	case retries < 0:
		return fmt.Errorf("sim: retries must be non-negative, got %d", retries)
	}
	return nil
}

// buildCell builds one repetition's network, payment workload and
// mice threshold — pure functions of runSeed.
func (sc Scenario) buildCell(runSeed int64) (*pcn.Network, []trace.Payment, float64, error) {
	net, err := BuildNetwork(sc.Kind, sc.Nodes, sc.ScaleFactor, sc.TestbedCapLo, sc.TestbedCapHi, runSeed)
	if err != nil {
		return nil, nil, 0, err
	}
	gen, err := workloadFor(sc.Kind, net.Graph(), runSeed)
	if err != nil {
		return nil, nil, 0, err
	}
	payments := gen.Generate(sc.Txns)
	return net, payments, core.ThresholdForMiceFraction(trace.Amounts(payments), sc.MiceFraction), nil
}

// replayScheme replays payments over net under a fresh router for
// scheme.
func (sc Scenario) replayScheme(net *pcn.Network, scheme string, payments []trace.Payment, threshold float64, runSeed int64) (Metrics, error) {
	spec := sc.Router
	spec.Scheme, spec.Threshold, spec.Seed = scheme, threshold, runSeed
	r, err := BuildRouter(spec)
	if err != nil {
		return Metrics{}, err
	}
	return Replay(net, r, payments, threshold, sc.Retries, sc.FlowSink)
}
