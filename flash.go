package flash

import (
	"io"
	"math/rand"
	"time"

	"repro/internal/baseline"
	"repro/internal/control"
	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/gossip"
	"repro/internal/graph"
	"repro/internal/htlc"
	"repro/internal/node"
	"repro/internal/pcn"
	"repro/internal/route"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/testbed"
	"repro/internal/topo"
	"repro/internal/trace"
)

// Topology and network state.
type (
	// NodeID identifies a node in a topology.
	NodeID = topo.NodeID
	// Graph is the channel connectivity topology.
	Graph = topo.Graph
	// Edge is one undirected payment channel.
	Edge = topo.Edge
	// Network is a funded payment channel network.
	Network = pcn.Network
	// Tx is an in-memory payment session (implements Session).
	Tx = pcn.Tx
	// FeeSchedule is a channel direction's forwarding fee.
	FeeSchedule = pcn.FeeSchedule
	// HopInfo is the result of probing one hop.
	HopInfo = pcn.HopInfo
)

// Routing.
type (
	// Session is a payment in flight: probe, hold, commit/abort.
	Session = route.Session
	// Yielder is the hold-span seam: sessions whose commit can be
	// suspended across virtual time and resumed later (pcn.Tx
	// implements it; the dynamic engine drives it).
	Yielder = route.Yielder
	// ParallelProber marks sessions whose Probe is safe for concurrent
	// calls within one session (pcn.Tx implements it; Flash's
	// speculative probe pipeline — Config.ProbeWorkers — requires it).
	ParallelProber = route.ParallelProber
	// Router is any routing algorithm driving Sessions.
	Router = route.Router
	// Flash is the paper's router (elephant/mice differentiation).
	Flash = core.Flash
	// Config parameterises the Flash router.
	Config = core.Config
	// RouterStats are Flash's internal counters.
	RouterStats = core.Stats
)

// Workloads and evaluation.
type (
	// Payment is one transaction of a workload.
	Payment = trace.Payment
	// SizeModel is a heavy-tailed payment-size mixture.
	SizeModel = trace.SizeModel
	// TraceConfig parameterises workload generation.
	TraceConfig = trace.Config
	// TraceGenerator produces reproducible payment streams.
	TraceGenerator = trace.Generator
	// Metrics aggregates a simulation or testbed run.
	Metrics = sim.Metrics
	// Scenario describes one experiment cell.
	Scenario = sim.Scenario
	// SchemeResult is per-scheme metrics across runs.
	SchemeResult = sim.SchemeResult
	// Summary is a min/mean/max aggregate.
	Summary = stats.Summary
)

// Dynamic-network simulation: the discrete-event engine (virtual
// clock, seeded event heap), time-varying arrival processes, and the
// churn-capable scenario harness.
type (
	// Event is one scheduled occurrence in a dynamic run (payment
	// arrival/completion, channel open/close, rebalance, demand shift).
	Event = event.Event
	// EventKind enumerates the dynamic event kinds.
	EventKind = event.Kind
	// EventQueue is the seeded (Time, Seq)-ordered event heap.
	EventQueue = event.Queue
	// ArrivalProcess generates virtual payment arrival times.
	ArrivalProcess = trace.ArrivalProcess
	// PoissonArrivals is the constant-rate arrival process.
	PoissonArrivals = trace.Poisson
	// FlashCrowdArrivals is the surge (flash-crowd) arrival process.
	FlashCrowdArrivals = trace.FlashCrowd
	// DiurnalArrivals is the sinusoidal demand-drift arrival process.
	DiurnalArrivals = trace.Diurnal
	// PaymentSource lazily yields timestamped payments.
	PaymentSource = trace.PaymentSource
	// PaymentStream pairs a generator with an arrival process, lazily.
	PaymentStream = trace.Stream
	// DynamicOptions tunes RunDynamicSimulation.
	DynamicOptions = sim.DynamicOptions
	// DynamicResult is a dynamic run's aggregate + time-series outcome.
	DynamicResult = sim.DynamicResult
	// MetricsWindow is one time-series bucket of a dynamic run.
	MetricsWindow = sim.Window
	// DynamicScenario describes one dynamic experiment cell.
	DynamicScenario = sim.DynamicScenario
	// DynamicSchemeResult pairs a scheme with its dynamic result.
	DynamicSchemeResult = sim.DynamicSchemeResult
)

// Adaptive control plane: the deterministic feedback layer that owns
// every runtime-tuned knob (global/per-sender elephant thresholds,
// probe width). Controllers observe per-window metrics and emit
// decisions; every applied decision is a fingerprinted ControlUpdate
// event, so controlled runs replay bit-identically.
type (
	// ControlPolicy selects and parameterises the built-in controllers
	// (DynamicScenario.Control / DynamicOptions.Control).
	ControlPolicy = control.Policy
	// Controller is the control-plane contract: observe one window,
	// emit knob decisions.
	Controller = control.Controller
	// ControlMetrics is the per-window observation a Controller sees.
	ControlMetrics = control.Metrics
	// ControlDecision is one knob update emitted by a Controller.
	ControlDecision = control.Decision
	// ControlKnob enumerates the runtime-tuned knobs.
	ControlKnob = control.Knob
	// ControlKnobStatus is the per-knob decision rollup of a run.
	ControlKnobStatus = sim.ControlKnobStatus
)

// Control-plane knob codes.
const (
	KnobThreshold       = control.KnobThreshold
	KnobSenderThreshold = control.KnobSenderThreshold
	KnobProbeWidth      = control.KnobProbeWidth
	KnobRetryBackoff    = control.KnobRetryBackoff
)

// ParseControlPolicy parses a comma-separated policy spec — raw|ewma
// (global threshold), sender (per-sender thresholds), width (probe
// width); "off" or "" is the inert policy — the flashsim/experiments
// -control syntax.
func ParseControlPolicy(spec string) (ControlPolicy, error) { return control.ParsePolicy(spec) }

// Dynamic event kinds.
const (
	EventPaymentArrival  = event.PaymentArrival
	EventPaymentComplete = event.PaymentComplete
	EventChannelOpen     = event.ChannelOpen
	EventChannelClose    = event.ChannelClose
	EventRebalance       = event.Rebalance
	EventDemandShift     = event.DemandShift
	EventFeeShift        = event.FeeShift
	EventControlUpdate   = event.ControlUpdate
)

// DynamicScenarioNames lists the built-in dynamic scenario catalogue
// (steady, flash-crowd, depletion-rebalance, churn, contention,
// hub-failure, demand-drift, fee-war).
var DynamicScenarioNames = sim.DynamicScenarioNames

// NewPaymentStream lazily pairs a trace generator with an arrival
// process.
func NewPaymentStream(gen *TraceGenerator, arr ArrivalProcess, seed int64) (*PaymentStream, error) {
	return trace.NewStream(gen, arr, seed)
}

// NewReplayStream wraps an existing payment list as a PaymentSource
// with arrivals pinned to the trace order.
func NewReplayStream(payments []Payment) PaymentSource { return trace.NewReplayStream(payments) }

// RunDynamicSimulation replays a payment source through the
// discrete-event engine: virtual time, lazy arrivals, churn events
// mutating the live network, per-window time-series metrics.
func RunDynamicSimulation(net *Network, r Router, src PaymentSource, horizon float64, churn []Event, miceThreshold float64, opts DynamicOptions) (DynamicResult, error) {
	return sim.RunDynamic(net, r, src, horizon, churn, miceThreshold, opts)
}

// NamedDynamicScenario returns a catalogue dynamic scenario.
func NamedDynamicScenario(name, kind string, nodes int) (DynamicScenario, error) {
	return sim.NamedDynamicScenario(name, kind, nodes)
}

// RunDynamicScenario executes a dynamic scenario across its schemes.
func RunDynamicScenario(sc DynamicScenario) ([]DynamicSchemeResult, error) {
	return sim.RunDynamicScenario(sc)
}

// Telemetry: observer-only flow records, a dependency-free metrics
// registry, and the live HTTP endpoint (/metrics, /flows, pprof).
// Attaching any of it never changes results — fingerprints and metrics
// stay byte-identical with sinks on or off.
type (
	// FlowRecord is one payment's flight record (endpoints, class,
	// attempts, probe/commit costs, fees, virtual times, outcome).
	FlowRecord = telemetry.FlowRecord
	// FlowSink receives one FlowRecord per completed payment.
	FlowSink = telemetry.Sink
	// JSONLFlowSink writes flow records as JSON lines.
	JSONLFlowSink = telemetry.JSONLSink
	// FlowLog is a bounded in-memory ring of recent flow records with
	// live subscription (backs the /flows endpoint).
	FlowLog = telemetry.FlowLog
	// MultiFlowSink fans one record out to several sinks.
	MultiFlowSink = telemetry.MultiSink
	// MetricsRegistry holds counters, gauges and histograms with
	// Prometheus-text and JSON-lines exporters.
	MetricsRegistry = telemetry.Registry
	// TelemetryServer serves /metrics, /flows and /debug/pprof/.
	TelemetryServer = telemetry.Server
)

// NewMetricsRegistry returns an empty metrics registry.
func NewMetricsRegistry() *MetricsRegistry { return telemetry.NewRegistry() }

// NewFlowLog returns a flow-record ring holding the last capacity
// records.
func NewFlowLog(capacity int) *FlowLog { return telemetry.NewFlowLog(capacity) }

// NewJSONLFlowSink streams flow records to w as JSON lines.
func NewJSONLFlowSink(w io.Writer) *JSONLFlowSink { return telemetry.NewJSONLSink(w) }

// NewTelemetryServer binds addr and serves /metrics, /metrics.json,
// /flows and /debug/pprof/ until Close. Either reg or flows may be nil.
func NewTelemetryServer(addr string, reg *MetricsRegistry, flows *FlowLog) (*TelemetryServer, error) {
	return telemetry.NewServer(addr, reg, flows)
}

// WriteDynamicJSON renders one scheme's dynamic result as an indented
// JSON document (the flashsim -json format).
func WriteDynamicJSON(out io.Writer, scheme string, res DynamicResult) error {
	return sim.WriteDynamicJSON(out, scheme, res)
}

// Topology maintenance (gossip) and payment security (HTLC) — the two
// layers the paper assumes (§2.1, §3.1); built here so the repository
// covers the full system.
type (
	// GossipPeer floods channel open/close/fee events and maintains an
	// eventually consistent local View.
	GossipPeer = gossip.Peer
	// GossipView is a node's local belief about the topology.
	GossipView = gossip.View
	// GossipEvent is one channel lifecycle announcement.
	GossipEvent = gossip.Event
	// HTLCLedger manages hash time-locked contracts over a Network.
	HTLCLedger = htlc.Ledger
	// HTLCChain is the logical block-height clock HTLC expiries use.
	HTLCChain = htlc.Chain
	// HTLCPayment is a multi-hop chain of hash-locked contracts.
	HTLCPayment = htlc.Payment
	// Secret is an HTLC preimage; its SHA-256 hash locks contracts.
	Secret = htlc.Secret
)

// NewGossipPeer creates a gossiping participant over an n-node ID
// space; ConnectPeers joins two peers that share a channel.
func NewGossipPeer(id NodeID, n int) *GossipPeer { return gossip.NewPeer(id, n) }

// ConnectPeers makes two gossip peers neighbours.
func ConnectPeers(a, b *GossipPeer) { gossip.Connect(a, b) }

// NewHTLCLedger creates an HTLC ledger over net, timed by chain.
func NewHTLCLedger(net *Network, chain *HTLCChain) *HTLCLedger { return htlc.NewLedger(net, chain) }

// SetupHTLCPayment locks a hash time-locked contract on every hop of
// path (expiries decreasing towards the receiver).
func SetupHTLCPayment(l *HTLCLedger, path []NodeID, amount float64, hash htlc.Hash, delta int64) (*HTLCPayment, error) {
	return htlc.Setup(l, path, amount, hash, delta)
}

// Testbed.
type (
	// Node is a TCP protocol endpoint (paper §5.1 prototype).
	Node = node.Node
	// NodeConfig configures a testbed node.
	NodeConfig = node.Config
	// NodeSession is a payment session over TCP (implements Session).
	NodeSession = node.Session
	// Cluster is a set of running TCP nodes.
	Cluster = testbed.Cluster
	// RouterFactory builds each node's router in a testbed run.
	RouterFactory = testbed.RouterFactory
)

// Scheme names accepted by NewRouterByName.
const (
	SchemeFlash         = sim.SchemeFlash
	SchemeFlashNoOpt    = sim.SchemeFlashNoOpt
	SchemeSpider        = sim.SchemeSpider
	SchemeSpeedyMurmurs = sim.SchemeSpeedyMurmurs
	SchemeShortestPath  = sim.SchemeShortestPath
	SchemeMaxFlow       = sim.SchemeMaxFlow
)

// NewGraph returns an empty topology with n nodes.
func NewGraph(n int) *Graph { return topo.New(n) }

// NewNetwork returns an unfunded network over g.
func NewNetwork(g *Graph) *Network { return pcn.New(g) }

// DefaultConfig returns the paper's Flash parameters (k=20, m=4) with
// the given elephant threshold.
func DefaultConfig(threshold float64) Config { return core.DefaultConfig(threshold) }

// NewFlash builds the Flash router.
func NewFlash(cfg Config) *Flash { return core.New(cfg) }

// ThresholdForMiceFraction computes the elephant threshold that makes
// the given fraction of amounts mice (the paper uses 0.9).
func ThresholdForMiceFraction(amounts []float64, frac float64) float64 {
	return core.ThresholdForMiceFraction(amounts, frac)
}

// Baseline routers (paper §4.1).
func NewShortestPath() Router               { return baseline.NewShortestPath() }
func NewSpider(paths int) Router            { return baseline.NewSpider(paths) }
func NewSpeedyMurmurs(landmarks int) Router { return baseline.NewSpeedyMurmurs(landmarks) }
func NewMaxFlowFullProbe() Router           { return baseline.NewMaxFlowFullProbe() }

// NewRouterByName builds any scheme by its experiment name.
func NewRouterByName(name string, threshold float64, seed int64) (Router, error) {
	return sim.BuildRouter(sim.RouterSpec{Scheme: name, Threshold: threshold, Seed: seed})
}

// Topology generators.
func WattsStrogatz(n, k int, beta float64, rng *rand.Rand) (*Graph, error) {
	return topo.WattsStrogatz(n, k, beta, rng)
}
func BarabasiAlbert(n, m int, rng *rand.Rand) (*Graph, error) {
	return topo.BarabasiAlbert(n, m, rng)
}
func RippleLike(n int, rng *rand.Rand) (*Graph, error)    { return topo.RippleLike(n, rng) }
func LightningLike(n int, rng *rand.Rand) (*Graph, error) { return topo.LightningLike(n, rng) }

// Size models calibrated to the paper's trace statistics.
var (
	RippleSizes  = trace.RippleSizes
	BitcoinSizes = trace.BitcoinSizes
)

// NewTraceGenerator builds a workload generator.
func NewTraceGenerator(cfg TraceConfig) (*TraceGenerator, error) { return trace.NewGenerator(cfg) }

// DefaultTraceConfig is a Ripple-like workload over n nodes.
func DefaultTraceConfig(n int) TraceConfig { return trace.DefaultConfig(n) }

// RunSimulation replays payments sequentially over net with router r:
// a zero-churn, one-station run of the dynamic engine over the trace
// (see sim.Replay).
func RunSimulation(net *Network, r Router, payments []Payment, miceThreshold float64) (Metrics, error) {
	return sim.Replay(net, r, payments, miceThreshold, 0, nil)
}

// BuildContentionFixture constructs the barbell contention fixture:
// every returned payment crosses one shared bridge channel, the worst
// case for concurrent holds (see sim.BuildContention).
func BuildContentionFixture(spokes int, spokeBal, bridgeBal, amount float64) (*Network, []Payment, error) {
	return sim.BuildContention(spokes, spokeBal, bridgeBal, amount)
}

// DefaultScenario is the paper's base experiment cell for a topology
// kind ("ripple", "lightning" or "testbed").
func DefaultScenario(kind string, nodes int) Scenario { return sim.DefaultScenario(kind, nodes) }

// RunScenario executes an experiment cell across schemes and runs.
func RunScenario(sc Scenario) ([]SchemeResult, error) { return sim.RunScenario(sc) }

// BuildNetwork constructs a funded network for an experiment kind.
func BuildNetwork(kind string, nodes int, scale float64, seed int64) (*Network, error) {
	return sim.BuildNetwork(kind, nodes, scale, 0, 0, seed)
}

// NewNode boots a TCP protocol node.
func NewNode(cfg NodeConfig) (*Node, error) { return node.New(cfg) }

// NewCluster boots one TCP node per topology vertex on loopback.
func NewCluster(g *Graph, timeout time.Duration) (*Cluster, error) {
	return testbed.NewCluster(g, timeout)
}

// Graph algorithms, exposed for building custom routing schemes on the
// same substrate.

// ShortestPath returns a minimum-hop path whose hops satisfy usable.
func ShortestPath(g *Graph, s, t NodeID, usable func(u, v NodeID) bool) []NodeID {
	return graph.ShortestPath(g, s, t, usable)
}

// KShortestPaths returns up to k loopless shortest paths (Yen).
func KShortestPaths(g *Graph, s, t NodeID, k int) [][]NodeID {
	return graph.YenKSP(g, s, t, k)
}

// EdgeDisjointPaths returns up to k channel-disjoint shortest paths.
func EdgeDisjointPaths(g *Graph, s, t NodeID, k int) [][]NodeID {
	return graph.EdgeDisjointPaths(g, s, t, k)
}
