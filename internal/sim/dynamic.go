package sim

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/control"
	"repro/internal/event"
	"repro/internal/pcn"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/topo"
)

// DynamicOptions tunes RunDynamic, the discrete-event replay.
type DynamicOptions struct {
	// Workers is the number of service stations, c: how many payments
	// may be in service at the same virtual instant. A payment holds a
	// station from its dispatch to its settle event, and an arrival that
	// finds all c busy waits for one, first come first served. Stations
	// are virtual: every payment routes inline on the run's one
	// goroutine, so at any c the event log and metrics are pure
	// functions of the seeds. 1 (or less) is one station, which never
	// queues under hold spans or RTTs (see Service).
	Workers int

	// Seed derives the engine's schedule randomness (virtual service
	// times, retry backoffs) and the griefer marking (GriefFrac).
	Seed int64

	// Retries re-routes an undelivered payment up to this many extra
	// times, each after a seeded jittered virtual backoff.
	Retries int

	// Window is the time-series bucket width in virtual seconds, and the
	// control plane's cadence; completed payments are recorded into the
	// window containing their completion instant. 0 defaults to a tenth
	// of the horizon; a negative, NaN or infinite width is an error.
	Window float64

	// Service is the mean virtual service time of a payment in seconds
	// (exponentially distributed, seeded). 0 completes payments at
	// their arrival instant, routing atomically at dispatch — the
	// historical behaviour, byte-identical across engine versions; a
	// negative, NaN or infinite service time is an error.
	//
	// Service > 0 enables hold spans: a payment splits into a
	// hold-phase event at dispatch (the router probes, holds and
	// *decides* to commit, but the session suspends on pcn.Tx's
	// DeferCommit seam) and a commit-phase event one exponential
	// service time later, when the suspended session resumes —
	// committing, or aborting HTLC-timeout style if churn closed a held
	// channel mid-span. Between the two events the payment's funds stay locked
	// on the network, so later arrivals probe the depleted residuals:
	// this models contention deterministically. The single station
	// never queues arrivals in this mode (routing is instantaneous in
	// virtual time; residency on the network is modelled by the holds,
	// not by station occupancy); c > 1 stations queue an arrival while c
	// spans are open. An attempt that fails at the hold phase locks
	// nothing and completes at its arrival instant — its retry clock
	// starts immediately.
	Service float64

	// Control selects the adaptive control plane (internal/control): a
	// declarative policy whose controllers observe per-window metrics
	// once per Window and re-tune the router's runtime knobs — global
	// and per-sender elephant thresholds and speculative probe width.
	// nil (or the zero policy) runs no controllers. The "raw"
	// threshold policy re-calibrates the threshold to the arrival
	// stream's mice-fraction quantile every window — the paper's
	// per-workload calibration (§4.1) kept true under demand drift. Only
	// Flash routers have knobs; for every other scheme the plane is
	// inert. Every observe pass and every applied decision is recorded
	// as a fingerprinted event.ControlUpdate, so controllers-on runs
	// replay identically.
	Control *control.Policy

	// controlHook appends scripted controllers to the resolved plane —
	// the test seam for exercising decision application (knob coverage,
	// per-sender swaps) without a full policy. nil in production.
	controlHook []control.Controller

	// Deadline is the HTLC-style expiry of a hold span in virtual
	// seconds: a suspended payment whose commit cannot settle within
	// Deadline of its holds being locked expires instead — the engine
	// schedules a DeadlineExpiry event at the deadline instant (in
	// place of the attempt's PaymentComplete, so every attempt still
	// settles exactly once), tears the holds down with pcn.Tx.Expire,
	// and counts the attempt as failed (DynamicResult.DeadlineExpiries).
	// 0 — the default — disables expiry and leaves the engine
	// byte-identical to the historical behaviour. Only meaningful with
	// Service > 0 (without spans no funds ever stay locked), so
	// RunDynamic rejects a Deadline without spans, as it does a
	// negative or NaN one.
	Deadline float64

	// GriefFrac marks this fraction of payments as griefers: their
	// drawn service time is overridden (never the draw itself, so
	// grief-off runs stay byte-identical) with GriefHold, modelling an
	// attacker who locks liquidity along the route and sits on it. The
	// marking is a pure per-payment hash of (Seed, payment ID) —
	// deterministic, independent of the schedule stream. Combined with
	// Deadline > 0 the griefers' spans expire at the deadline and the
	// victims recover; with Deadline = 0 the grief holds pin the
	// liquidity for their full GriefHold. Only meaningful with
	// Service > 0: RunDynamic rejects a GriefFrac without spans, a
	// negative or NaN one, and griefers with a negative or non-finite
	// GriefHold.
	GriefFrac float64
	GriefHold float64

	// FlowSink, when non-nil, receives one telemetry.FlowRecord per
	// completed payment, stamped with virtual arrival/completion time
	// and the span-abort outcome where churn invalidated a hold span.
	// Registry, when non-nil, accumulates per-completion rollups
	// (payment/outcome counters, volume, fees, message totals, an
	// amount histogram, virtual-clock and threshold gauges), labelled by
	// the router's scheme name, and the router's statistics and the
	// network's hold counters as gauges the engine sets at every window
	// close and at drain (RegisterRouterMetrics, RegisterNetworkMetrics).
	// Both are strictly observer-only: the event log, fingerprint and
	// metrics are byte-identical with or without them.
	FlowSink telemetry.Sink
	Registry *telemetry.Registry

	// audit, when non-nil, receives one schedAudit per settle/expiry/
	// retry scheduling decision — the exact components (latency,
	// service, resume, backoff) that produced each event time, so
	// property tests can re-derive every completion instant bit for
	// bit. Test hook; nil in production.
	audit func(schedAudit)

	// recordLog retains the full applied-event log in the result (the
	// fingerprint and per-kind counts are always available). Test hook.
	recordLog bool
}

// schedAudit is one engine scheduling decision as reported to the
// DynamicOptions.audit test hook: the components whose exact float64
// sum (At + Lat + Service + ResumeLat, or At + Lat + Deadline for an
// expiry, or At + Backoff for a retry) is the scheduled event's time.
type schedAudit struct {
	ID        int64
	Attempt   int
	At        float64 // decision instant (dispatch or settle time)
	Lat       float64 // attempt probe+commit virtual latency, seconds
	Service   float64 // effective virtual service time (0 for failed holds)
	ResumeLat float64 // settle-leg latency of the suspended span
	Backoff   float64 // retry backoff (Retry records only)
	EventAt   float64 // the scheduled event's time
	Expired   bool    // scheduled as a DeadlineExpiry
	Retry     bool    // retry record: EventAt = At + Backoff
}

// griefSalt decorrelates the griefer-marking hash (trace.HashUnit over
// the payment ID) from the per-payment routing seeds, which are
// derived from the same ID.
const griefSalt = 0x6F1EF

// Window is one time-series bucket of a dynamic run. The final
// window's End is clamped to the run horizon: payments still in flight
// at the horizon (service times, retry backoffs) drain into it rather
// than growing the series past the horizon.
type Window struct {
	Start, End float64 // virtual seconds

	// Threshold is the effective elephant classification threshold as
	// of the last re-calibration that touched this window (its value at
	// creation until one lands inside it) — constant at the calibrated
	// value unless a control policy re-calibrates it mid-run, in which
	// case the column shows the drift the router tracked.
	Threshold float64

	Metrics Metrics

	// Adaptive re-classifies the window's completions against the
	// threshold in effect for each payment when it completed (the
	// sender's live effective threshold, per-sender overrides
	// included), where Metrics always classifies against the run's
	// fixed metrics threshold. The two diverge exactly where the
	// control plane moved a threshold mid-run; comparing them shows
	// what the adaptation re-labelled. Populated only when a control
	// plane ran (DynamicResult.ControlOn).
	Adaptive Metrics

	// Latency summarises the completion latency (virtual completion −
	// first arrival) of payments delivered in this window. Populated
	// only when the run reports latency (DynamicResult.LatencyOn).
	Latency LatencyStats
}

// DynamicResult is the outcome of a dynamic run: the familiar
// aggregate metrics plus their time-series decomposition and the
// determinism evidence.
type DynamicResult struct {
	Aggregate   Metrics
	Windows     []Window
	EventCounts [event.NumKinds]int
	Fingerprint uint64        // FNV-1a over the applied-event log
	Log         []event.Event // populated under the recordLog test hook
	Horizon     float64

	// SpanAborts counts suspended payments whose deferred commit turned
	// into an abort because a held channel closed mid-span (hold-span
	// mode only; see DynamicOptions.Service).
	SpanAborts int

	// ThresholdUpdates counts control decisions that actually moved the
	// router's elephant threshold, and FinalThreshold is the effective
	// threshold when the run ended (the initial routing threshold when no
	// policy re-calibrated it).
	ThresholdUpdates int
	FinalThreshold   float64

	// ControlOn reports whether a control plane drove the run.
	// ControlDecisions counts applied decisions across all knobs, and
	// Controllers is the per-knob rollup (decision count and last
	// effective value) for knobs that decided at least once. Adaptive,
	// here and on every Window, then classifies completions against the
	// threshold in effect when each completed.
	ControlOn        bool
	ControlDecisions int
	Controllers      []ControlKnobStatus
	Adaptive         Metrics

	// LatencyOn reports whether the run carried a virtual latency model
	// (per-channel RTTs on the network, or a hold-span deadline): when
	// true, Latency and the per-window Latency stats are populated and
	// the renderers show latency columns. False runs are byte-identical
	// to the pre-latency engine.
	LatencyOn bool

	// Deadline echoes DynamicOptions.Deadline; DeadlineExpiries counts
	// hold spans torn down at that deadline instead of settling.
	Deadline         float64
	DeadlineExpiries int

	// Latency summarises completion latency (virtual completion − first
	// arrival) over all delivered payments, when LatencyOn. Its
	// histogram is the exact sum of the windows'.
	Latency LatencyStats
}

// validate rejects options that cannot mean anything instead of
// reading them as "off" or failing deep inside the run: a negative, NaN
// or infinite service time or window (0 keeps its meaning), deadline
// and grief settings that are negative, NaN or set without hold spans
// (service > 0), griefers with a negative or non-finite grief hold, and
// a control policy its controllers cannot be built from.
func (o DynamicOptions) validate() error {
	for _, f := range [...]struct {
		name string
		v    float64
	}{{"service time", o.Service}, {"window", o.Window}} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) || f.v < 0 {
			return fmt.Errorf("sim: %s must be non-negative and finite, got %v", f.name, f.v)
		}
	}
	for _, f := range [...]struct {
		name string
		v    float64
	}{{"deadline", o.Deadline}, {"grief fraction", o.GriefFrac}} {
		if math.IsNaN(f.v) || f.v < 0 {
			return fmt.Errorf("sim: %s must be non-negative, got %v", f.name, f.v)
		}
		if f.v > 0 && o.Service == 0 {
			return fmt.Errorf("sim: %s %v needs hold spans (a positive service time), got service %v", f.name, f.v, o.Service)
		}
	}
	if o.GriefFrac > 0 && (math.IsNaN(o.GriefHold) || math.IsInf(o.GriefHold, 0) || o.GriefHold < 0) {
		return fmt.Errorf("sim: grief hold must be non-negative and finite, got %v", o.GriefHold)
	}
	if o.Control != nil {
		if _, err := o.Control.Controllers(); err != nil {
			return fmt.Errorf("sim: %w", err)
		}
	}
	return nil
}

// addLatentChannels adds count latent channels to g, which is still
// being built, between uniformly drawn unconnected node pairs — the
// channels a churn schedule's open events may activate mid-run. They
// follow every base channel in index order.
//
// A latent channel opens fee-free: the paper's fee model is assigned
// while it is still closed, a ChannelOpen event funds it but never
// prices it, and a FeeShift scales its zero fee, so churn scenarios
// offer free shortcuts. Pricing it would move every churn golden.
func addLatentChannels(g *topo.Graph, count int, rng *rand.Rand) []topo.Edge {
	n := g.NumNodes()
	var latent []topo.Edge
	for attempts := 0; len(latent) < count && attempts < 20*count+20; attempts++ {
		u := topo.NodeID(rng.Intn(n))
		v := topo.NodeID(rng.Intn(n))
		if u == v || g.HasChannel(u, v) {
			continue
		}
		g.MustAddChannel(u, v)
		latent = append(latent, topo.NewEdge(u, v))
	}
	return latent
}

// buildChurnSchedule draws the scenario's churn events: Poisson
// open/close toggles over the channel population (latent channels
// start closed and get funded on first open), Poisson rebalances, and
// the optional demand shift. The schedule depends only on the RNG and
// the network's initial funding, so identically-seeded schemes replay
// identical churn.
func buildChurnSchedule(sc Scenario, net *pcn.Network, latent []topo.Edge, rng *rand.Rand) []event.Event {
	var events []event.Event
	g := net.Graph()
	baseChannels := g.NumChannels() - len(latent)

	if sc.ChurnRate > 0 && baseChannels > 0 {
		// Track liveness as the schedule will unfold: base channels start
		// open, latent ones closed and unfunded.
		open := make([]topo.Edge, baseChannels)
		copy(open, g.Channels()[:baseChannels])
		closed := append([]topo.Edge(nil), latent...)
		unfunded := make(map[topo.Edge]bool, len(latent))
		for _, e := range latent {
			unfunded[e] = true
		}
		// Latent channels opened for the first time get the network's
		// mean per-direction funding.
		meanDir := 0.0
		if g.NumChannels() > 0 {
			meanDir = net.TotalFunds() / float64(2*g.NumChannels())
		}
		for t := nextExp(rng, sc.ChurnRate); t < sc.Duration; t += nextExp(rng, sc.ChurnRate) {
			openOne := len(closed) > 0 && (len(open) <= 1 || rng.Float64() < 0.5)
			if openOne {
				i := rng.Intn(len(closed))
				e := closed[i]
				closed = append(closed[:i], closed[i+1:]...)
				open = append(open, e)
				amount := 0.0
				if unfunded[e] {
					amount = meanDir
					delete(unfunded, e)
				}
				events = append(events, event.Event{Time: t, Kind: event.ChannelOpen, A: e.A, B: e.B, Amount: amount})
			} else {
				i := rng.Intn(len(open))
				e := open[i]
				open = append(open[:i], open[i+1:]...)
				closed = append(closed, e)
				events = append(events, event.Event{Time: t, Kind: event.ChannelClose, A: e.A, B: e.B})
			}
		}
	}

	if sc.RebalanceRate > 0 && baseChannels > 0 {
		chans := g.Channels()[:baseChannels]
		for t := nextExp(rng, sc.RebalanceRate); t < sc.Duration; t += nextExp(rng, sc.RebalanceRate) {
			e := chans[rng.Intn(len(chans))]
			events = append(events, event.Event{Time: t, Kind: event.Rebalance, A: e.A, B: e.B})
		}
	}

	if sc.DemandShiftFactor > 0 {
		frac := sc.DemandShiftFrac
		if frac <= 0 || frac >= 1 {
			frac = 0.5
		}
		events = append(events, event.Event{Time: sc.Duration * frac, Kind: event.DemandShift, Amount: sc.DemandShiftFactor})
	}

	// Targeted hub failure: close every channel of the top-degree node
	// at the configured instant. Consumes no randomness, so enabling it
	// never perturbs the Poisson churn draws above.
	if sc.HubFailureFrac > 0 && sc.HubFailureFrac < 1 {
		hub := topDegreeNode(g)
		at := sc.Duration * sc.HubFailureFrac
		for _, e := range g.Channels() {
			if e.A == hub || e.B == hub {
				events = append(events, event.Event{Time: at, Kind: event.ChannelClose, A: e.A, B: e.B})
			}
		}
	}

	// Fee war: the top-degree hub reprices every one of its channels at
	// mid-run. Like the hub failure, this consumes no randomness.
	if sc.FeeShiftFactor > 0 {
		hub := topDegreeNode(g)
		at := sc.Duration * 0.5
		for _, e := range g.Channels() {
			if e.A == hub || e.B == hub {
				events = append(events, event.Event{Time: at, Kind: event.FeeShift, A: e.A, B: e.B, Amount: sc.FeeShiftFactor})
			}
		}
	}
	return events
}

// topDegreeNode returns the node with the most channels (lowest ID on
// ties — deterministic).
func topDegreeNode(g *topo.Graph) topo.NodeID {
	best := topo.NodeID(0)
	for u := 1; u < g.NumNodes(); u++ {
		if g.Degree(topo.NodeID(u)) > g.Degree(best) {
			best = topo.NodeID(u)
		}
	}
	return best
}

// nextExp draws an exponential inter-event gap for rate events/second.
func nextExp(rng *rand.Rand, rate float64) float64 {
	return rng.ExpFloat64() / rate
}

// newChurnRNG derives the churn-schedule RNG (latent-channel selection
// and event times) from a scenario seed.
func newChurnRNG(seed int64) *rand.Rand { return stats.NewRNG(seed, 0xC402) }

// newLatencyRNG derives the per-channel RTT assignment RNG from a
// scenario seed — its own stream, so the latency model never perturbs
// any other scenario draw.
func newLatencyRNG(seed int64) *rand.Rand { return stats.NewRNG(seed, 0x1A7E) }
