package flash

import (
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/pcn"
	"repro/internal/route"
	"repro/internal/sim"
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
	// Network is a funded payment channel network.
	Network = pcn.Network
	// FeeSchedule is a channel direction's forwarding fee.
	FeeSchedule = pcn.FeeSchedule
)

// Routing.
type (
	// Router is any routing algorithm driving payment sessions.
	Router = route.Router
	// Flash is the paper's router (elephant/mice differentiation).
	Flash = core.Flash
	// Config parameterises the Flash router.
	Config = core.Config
)

// Workloads and evaluation.
type (
	// Payment is one transaction of a workload.
	Payment = trace.Payment
	// TraceConfig parameterises workload generation.
	TraceConfig = trace.Config
	// TraceGenerator produces reproducible payment streams.
	TraceGenerator = trace.Generator
	// Metrics aggregates a simulation or testbed run.
	Metrics = sim.Metrics
	// Scenario describes one experiment cell.
	Scenario = sim.Scenario
	// SchemeResult is one scheme's results across runs.
	SchemeResult = sim.SchemeResult
)

// Cluster is a set of running TCP nodes (paper §5.1 prototype).
type Cluster = testbed.Cluster

// The schemes the paper compares, by the names NewRouterByName accepts.
const (
	SchemeFlash         = sim.SchemeFlash
	SchemeSpider        = sim.SchemeSpider
	SchemeSpeedyMurmurs = sim.SchemeSpeedyMurmurs
	SchemeShortestPath  = sim.SchemeShortestPath
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

// NewRouterByName builds any scheme by its experiment name.
func NewRouterByName(name string, threshold float64, seed int64) (Router, error) {
	return sim.BuildRouter(sim.RouterSpec{Scheme: name, Threshold: threshold, Seed: seed})
}

// WattsStrogatz generates a small-world topology: a ring lattice of
// degree k with each edge rewired with probability beta.
func WattsStrogatz(n, k int, beta float64, rng *rand.Rand) (*Graph, error) {
	return topo.WattsStrogatz(n, k, beta, rng)
}

// NewTraceGenerator builds a workload generator.
func NewTraceGenerator(cfg TraceConfig) (*TraceGenerator, error) { return trace.NewGenerator(cfg) }

// DefaultTraceConfig is a Ripple-like workload over n nodes.
func DefaultTraceConfig(n int) TraceConfig { return trace.DefaultConfig(n) }

// RunSimulation replays payments sequentially over net with router r:
// a zero-churn, one-station run of the dynamic engine over the trace
// (see sim.Replay).
func RunSimulation(net *Network, r Router, payments []Payment, miceThreshold float64) (Metrics, error) {
	return sim.Replay(net, r, payments, miceThreshold)
}

// DefaultScenario is the paper's base experiment cell for a topology
// kind ("ripple", "lightning" or "testbed").
func DefaultScenario(kind string, nodes int) Scenario { return sim.DefaultScenario(kind, nodes) }

// RunScenario executes an experiment cell across schemes and runs.
func RunScenario(sc Scenario) ([]SchemeResult, error) { return sim.Run(sc) }

// BuildNetwork constructs a funded network for an experiment kind.
func BuildNetwork(kind string, nodes int, scale float64, seed int64) (*Network, error) {
	return sim.BuildNetwork(kind, nodes, scale, seed)
}

// NewCluster boots one TCP node per topology vertex on loopback.
func NewCluster(g *Graph, timeout time.Duration) (*Cluster, error) {
	return testbed.NewCluster(g, timeout)
}
