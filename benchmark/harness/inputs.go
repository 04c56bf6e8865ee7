package harness

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/pcn"
	"repro/internal/stats"
	"repro/internal/topo"
	"repro/internal/trace"
)

// DatasetSeed generates what the paper takes from a crawl: the network
// (topology, balances, fees, RTTs) and the payment trace (who pays whom
// how much, in which order). They are the dataset, the same on every
// run. The run's own seed draws everything that is random about a run:
// arrival times, the churn schedule, the engine's service times and
// retry backoffs, and the routers' path-order choices.
//
// Seeding the dataset too was tried and measured: a trace's few
// dominant sender→receiver pairs move success_volume_ratio by 4–9% from
// seed to seed on the simulator workloads and by 45% on the testbed,
// more than any bound worth having could absorb.
const DatasetSeed = 1

// RNG stream labels: every generated input draws from its own stream of
// its seed, so changing one input's size never perturbs another.
const (
	streamTopo    = 0xB001
	streamFunds   = 0xB002
	streamFees    = 0xB003
	streamRTT     = 0xB004
	streamArrival = 0xB005
	streamChurn   = 0xB006
)

// meanDowntime is the mean of the exponential downtime of a closed
// channel, virtual seconds.
const meanDowntime = 1.0

// Phases times the parts of one set-up, in seconds. Their sum is the
// set-up time to within the few statements between the timers.
type Phases struct {
	TopoBuild float64 `json:"topo_build_s"`     // topology generation
	Fund      float64 `json:"fund_s"`           // balances, fees, RTTs
	TraceGen  float64 `json:"trace_generate_s"` // payment generation
	Schedule  float64 `json:"schedule_s"`       // arrival times, churn schedule, threshold calibration, digest
	Boot      float64 `json:"testbed_boot_s"`   // TCP cluster boot (testbed-tcp only)
}

// Inputs is everything one workload feeds the program for one seed.
type Inputs struct {
	Spec               Spec
	Seed               int64
	NetSeed, TraceSeed int64

	Graph     *topo.Graph
	Payments  []trace.Payment
	Arrivals  []float64 // virtual seconds, one per payment
	Churn     []event.Event
	Threshold float64 // 90th percentile of payment sizes
	Horizon   float64 // virtual seconds; past the last arrival

	// Digest is FNV-1a over channels, balances, payments, arrival times
	// and churn events: equal digests mean equal inputs.
	Digest uint64

	Phases Phases
}

// Generate builds a workload's inputs from the seed. Nothing here is
// timed as part of a rep; Phases reports what set-up itself cost.
func Generate(spec Spec, seed int64) (*Inputs, error) {
	in := &Inputs{Spec: spec, Seed: seed}

	start := time.Now()
	var err error
	if spec.TCP {
		in.Graph, err = topo.WattsStrogatz(spec.Nodes, 4, 0.3, stats.NewRNG(DatasetSeed, streamTopo))
	} else {
		in.Graph, err = topo.RippleLike(spec.Nodes, stats.NewRNG(DatasetSeed, streamTopo))
	}
	if err != nil {
		return nil, fmt.Errorf("%s: topology: %w", spec.Name, err)
	}
	in.Phases.TopoBuild = time.Since(start).Seconds()

	start = time.Now()
	net := in.NewNetwork()
	in.Phases.Fund = time.Since(start).Seconds()

	start = time.Now()
	cfg := trace.DefaultConfig(spec.Nodes)
	cfg.Graph = in.Graph
	cfg.Seed = DatasetSeed
	gen, err := trace.NewGenerator(cfg)
	if err != nil {
		return nil, fmt.Errorf("%s: workload: %w", spec.Name, err)
	}
	in.Payments = gen.Generate(spec.Payments)
	in.Phases.TraceGen = time.Since(start).Seconds()

	start = time.Now()
	in.Arrivals = poissonArrivals(len(in.Payments), stats.NewRNG(seed, streamArrival))
	in.Horizon = in.Arrivals[len(in.Arrivals)-1] + 1
	in.Churn = churnSchedule(in.Graph, spec, in.Arrivals[len(in.Arrivals)-1], stats.NewRNG(seed, streamChurn))
	in.Threshold = core.ThresholdForMiceFraction(trace.Amounts(in.Payments), 0.9)
	in.Digest = in.digest(net)
	in.Phases.Schedule = time.Since(start).Seconds()
	return in, nil
}

// NewNetwork funds a fresh in-memory network over the workload's graph.
// Every rep starts from one, so no rep sees another's balances, closed
// channels or counters. The recipe follows the paper's set-up: Ripple
// channels funded log-normally (median $250, even split) at capacity
// scale 10, testbed channels uniformly in [1500, 2000), Figure 9 fees.
func (in *Inputs) NewNetwork() *pcn.Network {
	net := pcn.New(in.Graph)
	funds := stats.NewRNG(DatasetSeed, streamFunds)
	if in.Spec.TCP {
		net.AssignBalancesUniform(funds, 1500, 2000)
	} else {
		net.AssignBalancesLogNormal(funds, 250, 1.5, true)
		net.ScaleBalances(10)
		net.AssignFeesPaper(stats.NewRNG(DatasetSeed, streamFees))
	}
	if in.Spec.RTTMedian > 0 {
		net.AssignLatenciesLogNormal(stats.NewRNG(DatasetSeed, streamRTT), in.Spec.RTTMedian, in.Spec.RTTSigma)
	}
	return net
}

// Source returns a fresh payment source over the first n generated
// payments and their arrival times.
func (in *Inputs) Source(n int) trace.PaymentSource { return &replaySource{in: in, n: n} }

// replaySource feeds the engine the generated payments at the generated
// arrival times and then reports exhaustion.
type replaySource struct {
	in      *Inputs
	n, next int
}

// Next implements trace.PaymentSource.
func (s *replaySource) Next() (trace.Payment, float64, bool) {
	if s.next >= s.n {
		return trace.Payment{}, 0, false
	}
	i := s.next
	s.next++
	return s.in.Payments[i], s.in.Arrivals[i], true
}

// poissonArrivals draws n arrival times of a Poisson process at
// ArrivalRate.
func poissonArrivals(n int, rng *rand.Rand) []float64 {
	at := make([]float64, n)
	t := 0.0
	for i := range at {
		t += rng.ExpFloat64() / ArrivalRate
		at[i] = t
	}
	return at
}

// churnSchedule draws the workload's churn over [0, until): Poisson
// channel closes, each followed by its reopen after an exponential
// downtime (frozen balances become spendable again), and Poisson
// rebalances. A close only ever picks a channel that is open at that
// instant.
func churnSchedule(g *topo.Graph, spec Spec, until float64, rng *rand.Rand) []event.Event {
	chans := g.Channels()
	var events []event.Event
	if spec.CloseRate > 0 {
		reopenAt := make([]float64, len(chans)) // channel i is closed until reopenAt[i]
		for t := rng.ExpFloat64() / spec.CloseRate; t < until; t += rng.ExpFloat64() / spec.CloseRate {
			i := rng.Intn(len(chans))
			for tries := 0; reopenAt[i] >= t && tries < 16; tries++ {
				i = rng.Intn(len(chans))
			}
			if reopenAt[i] >= t {
				continue
			}
			reopenAt[i] = t + rng.ExpFloat64()*meanDowntime
			e := chans[i]
			events = append(events,
				event.Event{Time: t, Kind: event.ChannelClose, A: e.A, B: e.B},
				event.Event{Time: reopenAt[i], Kind: event.ChannelOpen, A: e.A, B: e.B})
		}
	}
	if spec.RebalanceRate > 0 {
		for t := rng.ExpFloat64() / spec.RebalanceRate; t < until; t += rng.ExpFloat64() / spec.RebalanceRate {
			e := chans[rng.Intn(len(chans))]
			events = append(events, event.Event{Time: t, Kind: event.Rebalance, A: e.A, B: e.B})
		}
	}
	return events
}

// digest64 is FNV-1a over 64-bit words, low byte first.
type digest64 struct {
	h   hash.Hash64
	buf [8]byte
}

func newDigest() *digest64 { return &digest64{h: fnv.New64a()} }

func (d *digest64) word(w uint64) {
	binary.LittleEndian.PutUint64(d.buf[:], w)
	d.h.Write(d.buf[:]) // a hash.Hash never fails to write
}

func (d *digest64) float(f float64) { d.word(math.Float64bits(f)) }

func (d *digest64) pair(a, b topo.NodeID) { d.word(uint64(uint32(a))<<32 | uint64(uint32(b))) }

// digest folds every generated input into one number; net supplies the
// initial balances.
func (in *Inputs) digest(net *pcn.Network) uint64 {
	h := newDigest()
	for _, e := range in.Graph.Channels() {
		h.pair(e.A, e.B)
		h.float(net.Balance(e.A, e.B))
		h.float(net.Balance(e.B, e.A))
	}
	for i, p := range in.Payments {
		h.pair(p.Sender, p.Receiver)
		h.float(p.Amount)
		h.float(in.Arrivals[i])
	}
	for _, e := range in.Churn {
		h.float(e.Time)
		h.word(uint64(e.Kind))
		h.pair(e.A, e.B)
	}
	return h.h.Sum64()
}
