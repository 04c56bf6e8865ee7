package sim

import (
	"fmt"
	"math/rand"

	"repro/internal/control"
	"repro/internal/stats"
	"repro/internal/topo"
	"repro/internal/trace"
)

// FixtureBarbell selects the BuildContention barbell topology and its
// cross-bridge workload in Scenario.Fixture.
const FixtureBarbell = "barbell"

// ScenarioNames lists the scenario catalogue in presentation order.
var ScenarioNames = []string{"steady", "flash-crowd", "depletion-rebalance", "churn", "contention", "hub-failure", "demand-drift", "fee-war", "latency-slo", "griefing"}

// NamedScenario returns a catalogue scenario over the given topology,
// each a timed arrival:
//
//   - "steady": Poisson arrivals at a constant rate — the dynamic
//     baseline, matching the paper's replay's load profile.
//   - "flash-crowd": a 6× arrival surge over the middle fifth of the
//     run, plus a 2× demand shift while the crowd lasts.
//   - "depletion-rebalance": steady arrivals at a low capacity scale
//     (channels deplete) with periodic rebalancing fighting back.
//   - "churn": diurnal demand drift with channels closing and
//     (re)opening throughout, including latent channels that first
//     appear mid-run.
//   - "contention": the barbell fixture under Poisson arrivals with
//     hold spans — payments lock the one bridge channel for their
//     service time, so the success rate degrades while holds pile up
//     and recovers as they drain. Only meaningful with Service > 0.
//   - "hub-failure": hold spans plus a targeted failure — every
//     channel of the top-degree node closes mid-run; payments
//     suspended across the failure abort, and the success rate drops
//     with the hub gone.
//   - "demand-drift": a 4× downward demand shift mid-run on a tightly
//     provisioned network, with the raw threshold policy re-calibrating
//     the elephant threshold. The static control (-control off) keeps
//     classifying against the stale pre-shift 90th percentile, so the
//     post-shift top decile routes over m mice paths instead of the
//     elephant algorithm and its success ratio degrades; the adaptive
//     run re-calibrates within a threshold window and recovers.
//   - "fee-war": the top-degree hub multiplies its channel fees 25×
//     mid-run. Success is largely unaffected (capacity is unchanged)
//     but the fee ratio jumps in the post-shift windows, least for
//     fee-optimising schemes.
//   - "latency-slo": per-channel RTTs (log-normal, 50ms median) under
//     hold spans with a 5s HTLC deadline — the latency-aware cell:
//     completion-latency percentiles become first-class per-window
//     metrics, and probe-heavy schemes pay their round trips in p95/
//     p99. ProbeWorkers > 1 visibly compresses the probe latency.
//   - "griefing": a deadline-exhaustion attack on the barbell bridge —
//     the victim channel every payment crosses. 30% of payments are
//     griefers holding their routes for 30s (vs the honest 2s mean);
//     with the 4s deadline the griefers' spans expire and honest
//     traffic recovers, while the -deadline=0 control shows the
//     attack pinning the bridge liquidity unchallenged.
func NamedScenario(name, kind string, nodes int) (Scenario, error) {
	sc := Scenario{
		Name:           name,
		Kind:           kind,
		Nodes:          nodes,
		ScaleFactor:    10,
		MiceFraction:   0.9,
		Duration:       60,
		Arrival:        ArrivalPoisson,
		Rate:           20,
		Schemes:        PaperSchemes,
		Router:         RouterSpec{ProbeWorkers: 1},         // sequential Algorithm 1
		DynamicOptions: DynamicOptions{Workers: 1, Seed: 1}, // one station: deterministic
	}
	switch name {
	case "steady":
	case "flash-crowd":
		sc.Arrival = ArrivalFlashCrowd
		sc.Rate = 15
		sc.Peak = 6
		sc.DemandShiftFactor = 2
		sc.DemandShiftFrac = 0.4 // the surge start, wherever Duration lands
	case "depletion-rebalance":
		sc.ScaleFactor = 2
		sc.Rate = 25
		sc.RebalanceRate = 2
	case "churn":
		sc.Arrival = ArrivalDiurnal
		sc.Peak = 0.6
		sc.ChurnRate = 1
		sc.RebalanceRate = 0.5
		sc.LatentChannels = nodes / 10
	case "contention":
		sc.Fixture = FixtureBarbell
		sc.Rate = 6
		sc.Service = 2 // mean hold span: ~12 payments in flight at once
	case "hub-failure":
		sc.Rate = 25
		sc.Service = 1.5
		sc.HubFailureFrac = 0.5
	case "demand-drift":
		sc.ScaleFactor = 2 // tight capacity: misrouted elephants actually fail
		sc.Rate = 25
		sc.DemandShiftFactor = 0.25
		sc.DemandShiftFrac = 0.5
		sc.Control = &control.Policy{Threshold: "raw"}
	case "fee-war":
		sc.FeeShiftFactor = 25
	case "latency-slo":
		sc.LatencyMedian = 0.05 // 50ms median per-channel RTT
		sc.LatencySigma = 0.8
		sc.Service = 1
		sc.Deadline = 5
	case "griefing":
		sc.Fixture = FixtureBarbell
		sc.Rate = 6
		sc.Service = 2
		sc.LatencyMedian = 0.02
		sc.LatencySigma = 0.5
		sc.GriefFrac = 0.3
		sc.GriefHold = 30 // half the run: a griefed hold never drains on its own
		sc.Deadline = 4
	default:
		return sc, fmt.Errorf("sim: unknown dynamic scenario %q (have %v)", name, ScenarioNames)
	}
	return sc, nil
}

// The barbell fixture's funding and payment size: a bridge of 80 per
// direction fits ~8 concurrent 10-unit holds, and the spokes never
// bind.
const (
	barbellSpokeBalance  = 1e6
	barbellBridgeBalance = 80
	barbellAmount        = 10
)

// barbellCell builds the contention fixture's cell: a BuildContention
// barbell (spoke count derived from sc.Nodes) and a lazy cross-bridge
// payment stream under the scenario's arrival process. The elephant
// threshold equals the fixed payment amount, so every payment
// classifies as a mouse — the scenario isolates hold contention, not
// size differentiation.
func (sc Scenario) barbellCell(seed int64) (*cell, error) {
	arr, err := sc.arrivalProcess()
	if err != nil {
		return nil, err
	}
	spokes := max((sc.Nodes-2)/2, 2)
	net, _, err := BuildContention(spokes, barbellSpokeBalance, barbellBridgeBalance, barbellAmount)
	if err != nil {
		return nil, err
	}
	return &cell{seed: seed, horizon: sc.Duration, threshold: barbellAmount,
		net:   sc.withLatency(net, seed),
		churn: buildChurnSchedule(sc, net, nil, newChurnRNG(seed)),
		source: func() (trace.PaymentSource, error) {
			return &barbellStream{spokes: spokes, arr: arr, rng: stats.NewRNG(seed, 0xBA2B)}, nil
		},
	}, nil
}

// barbellStream feeds the barbell fixture's cross-bridge payments
// under an arrival process: round-robin spoke pairs, alternating
// direction every payment so committed flow nets out over the bridge
// and failures are attributable to in-flight holds, not depletion.
// Like trace.Stream it never exhausts; the horizon bounds the run.
type barbellStream struct {
	spokes int
	arr    trace.ArrivalProcess
	rng    *rand.Rand
	now    float64
	next   int
}

// Validate checks the stream's arrival process, mirroring
// trace.Stream.Validate (RunDynamic calls it before scheduling).
func (b *barbellStream) Validate() error { return b.arr.Validate() }

// Next implements trace.PaymentSource.
func (b *barbellStream) Next() (trace.Payment, float64, bool) {
	b.now = b.arr.NextAfter(b.rng, b.now)
	i := b.next
	b.next++
	left := topo.NodeID(i % b.spokes)
	right := topo.NodeID(b.spokes + 2 + (i/b.spokes)%b.spokes)
	p := trace.Payment{ID: i, Amount: barbellAmount, Time: b.now / trace.SecondsPerDay}
	if i%2 == 0 {
		p.Sender, p.Receiver = left, right
	} else {
		p.Sender, p.Receiver = right, left
	}
	return p, b.now, true
}
