// Package harness is flashbench: the repository's benchmark. It builds
// each workload's inputs from a seed outside the timer, replays them
// through the public functions of the layers under test, checks the
// outputs, and reports end-to-end metrics (untraced run) or per-layer
// metrics (traced run) under the names BENCHMARK.json fixes.
//
// Everything is driven from one goroutine (Workers: 1, one TCP client):
// the reference box has two cores, and the single-station engine is the
// only mode whose outcomes are a pure function of the seed.
package harness

import (
	"fmt"

	"repro/internal/sim"
)

// ArrivalRate is the Poisson arrival rate of every workload, in
// payments per virtual second. The loop is open in virtual time and
// closed in host time: the engine routes each arrival before pulling
// the next, so a slow router receives the same load.
const ArrivalRate = 1000.0

// Spec describes one workload: the inputs to generate and the engine
// options to replay them under.
type Spec struct {
	Name string
	// Why records what the workload is for — which layer owns its wall
	// time, and so which optimisation it exercises or bypasses.
	Why string

	// TCP selects the loopback testbed (node/wire/testbed) instead of
	// the discrete-event simulator.
	TCP bool

	Nodes    int
	Payments int    // per rep
	Scheme   string // sim.Scheme*
	TableCap int    // core.Config.TableCap; 0 keeps tables unbounded

	// CloseRate channels close per virtual second, each reopening after
	// an Exp(1 s) downtime; RebalanceRate channels rebalance per second.
	CloseRate     float64
	RebalanceRate float64

	Service  float64 // mean hold span, virtual seconds; 0 settles at dispatch
	Retries  int
	Deadline float64 // HTLC expiry of a hold span, virtual seconds

	// RTTMedian > 0 assigns log-normal per-channel RTTs (seconds).
	RTTMedian, RTTSigma float64

	// EngineLadder marks the workload whose inputs the engine's own
	// ladder rungs run on (no-op router, concurrent stations, live
	// telemetry on against off).
	EngineLadder bool

	// MinReps is the fewest timed reps a run reports a median over.
	MinReps int
}

// Workloads lists the benchmark's workloads in presentation order.
var Workloads = []Spec{
	{
		Name:  "ripple-mixed",
		Why:   "The paper's headline cell (Ripple-size graph, 90% mice). core owns ~99% of wall time, mice ~62% / elephants ~37%, so every mice, elephant, LP or table change shows here.",
		Nodes: 2000, Payments: 20000, Scheme: sim.SchemeFlash,
		CloseRate: 1, RebalanceRate: 1, MinReps: 3,
	},
	{
		Name:  "scale-10k",
		Why:   "10,000 nodes, capped and mostly cold tables: graph search is ~all the work, so cheaper route discovery must show here and a per-receiver cache it adds shows in peak_rss_mb.",
		Nodes: 10000, Payments: 5000, Scheme: sim.SchemeFlash, TableCap: 4096,
		CloseRate: 1, RebalanceRate: 1, MinReps: 3,
	},
	{
		Name:  "ripple-churn",
		Why:   "ripple-mixed under 25 closes/s, 25 rebalances/s, hold spans and a retry: invalidation writes beside lookups, so a cache that makes invalidation or memory dearer loses here.",
		Nodes: 2000, Payments: 20000, Scheme: sim.SchemeFlash,
		CloseRate: 25, RebalanceRate: 25, Service: 0.05, Retries: 1, MinReps: 3,
	},
	{
		Name:  "engine-churn",
		Why:   "200 nodes, ShortestPath, spans, retries, RTTs, deadlines: routing is trivial and sim/event/pcn machinery is ~half the wall time. Bypass workload for graph/core changes.",
		Nodes: 200, Payments: 200000, Scheme: sim.SchemeShortestPath,
		CloseRate: 25, RebalanceRate: 25, Service: 0.05, Retries: 2, Deadline: 0.25,
		RTTMedian: 0.005, RTTSigma: 0.8, EngineLadder: true, MinReps: 5,
	},
	{
		Name:  "testbed-tcp",
		Why:   "50 TCP nodes on loopback (not a real link), one closed-loop client, one P: node/wire/testbed own the time, so simulator-side work must not move it; message or wire changes must.",
		TCP:   true,
		Nodes: 50, Payments: 5000, Scheme: sim.SchemeFlash, MinReps: 3,
	},
}

// WorkloadByName returns the named workload.
func WorkloadByName(name string) (Spec, error) {
	for _, w := range Workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return Spec{}, fmt.Errorf("unknown workload %q", name)
}

// Smoke shrinks a workload to about 1/50 of its size so that the whole
// set runs in seconds: the same code paths, no claim to the same mix.
func (s Spec) Smoke() Spec {
	s.Payments /= 50
	if s.Nodes > 2000 {
		s.Nodes /= 5
	}
	s.MinReps = 2
	return s
}
