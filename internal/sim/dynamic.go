package sim

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/control"
	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/pcn"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/topo"
	"repro/internal/trace"
)

// DynamicOptions tunes RunDynamic, the discrete-event replay.
type DynamicOptions struct {
	// Workers is the number of service stations: how many payments may
	// be in service at the same virtual instant. 1 (or less) processes
	// payments strictly one at a time — the deterministic mode, whose
	// event log and metrics are pure functions of the seeds. Larger
	// values route overlapping payments on real goroutines, so their
	// balance interleaving (and therefore outcomes) is
	// scheduling-dependent.
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
	// with Workers ≤ 1 this models contention *deterministically*,
	// which is why the single station never queues arrivals in this
	// mode (routing is instantaneous in virtual time; residency on the
	// network is modelled by the holds, not by station occupancy).
	// Consistently, an attempt that fails at the hold phase locks
	// nothing and completes at its arrival instant — its retry clock
	// starts immediately. (With Workers > 1 the completion event is
	// scheduled before the goroutine's outcome is known, so failures
	// there surface after the service time, like any station model.)
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
	// replay identically at Workers ≤ 1.
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
	// the router's scheme name. Both are strictly observer-only: the
	// event log, fingerprint and metrics are byte-identical with or
	// without them.
	FlowSink telemetry.Sink
	Registry *telemetry.Registry

	// audit, when non-nil, receives one schedAudit per settle/expiry/
	// retry scheduling decision at Workers ≤ 1 — the exact components
	// (latency, service, resume, backoff) that produced each event
	// time, so property tests can re-derive every completion instant
	// bit for bit. Test hook; nil in production.
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
	// arrival) over all delivered payments, when LatencyOn.
	Latency LatencyStats
}

// WindowRatios renders the per-window success ratios (for quick
// inspection and tests).
func (r DynamicResult) WindowRatios() []float64 {
	out := make([]float64, len(r.Windows))
	for i, w := range r.Windows {
		out[i] = w.Metrics.SuccessRatio()
	}
	return out
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

// validate checks a scenario before anything is built from it: a
// positive, finite duration and arrival rate, churn and rebalance
// rates that are non-negative and finite (an infinite rate would draw
// zero gaps forever), the checks shared with the static cell
// (checkCell), and valid engine options.
func (sc DynamicScenario) validate() error {
	for _, f := range [...]struct {
		name string
		v    float64
	}{{"duration", sc.Duration}, {"arrival rate", sc.Rate}} {
		if !(f.v > 0) || math.IsInf(f.v, 1) {
			return fmt.Errorf("sim: dynamic scenario %s must be positive and finite, got %v", f.name, f.v)
		}
	}
	for _, f := range [...]struct {
		name string
		v    float64
	}{{"churn rate", sc.ChurnRate}, {"rebalance rate", sc.RebalanceRate}} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) || f.v < 0 {
			return fmt.Errorf("sim: dynamic scenario %s must be non-negative and finite, got %v", f.name, f.v)
		}
	}
	if err := checkCell(sc.ScaleFactor, sc.MiceFraction, sc.Retries); err != nil {
		return err
	}
	return sc.DynamicOptions.validate()
}

// Arrival-process names understood by DynamicScenario.
const (
	ArrivalPoisson    = "poisson"
	ArrivalFlashCrowd = "flash-crowd"
	ArrivalDiurnal    = "diurnal"
)

// DynamicScenario describes one dynamic experiment cell: a topology, a
// time-varying arrival process, a churn model, and the schemes to
// compare under them.
//
// The engine settings are the embedded DynamicOptions, so they read as
// sc.Service, sc.Workers, sc.Seed, sc.Control and so on, and the
// Flash knobs are Router's (sc.Router.K, sc.Router.ProbeWorkers,
// sc.Router.TableCap, …). RunDynamicScenario sets Router.Scheme,
// Router.Threshold and Router.Seed itself for each scheme; Seed seeds
// the router, the engine and every scenario draw. A policy in Control
// that leaves MiceFraction at 0 tracks the scenario's MiceFraction.
type DynamicScenario struct {
	Name  string // catalogue label (informational)
	Kind  string // KindRipple, KindLightning, KindTestbed or "snapshot:<path>"
	Nodes int    // topology size; ignored by snapshot kinds

	// Fixture, when non-empty, replaces the Kind topology and workload
	// with a synthetic fixture. FixtureBarbell is the BuildContention
	// barbell: every payment crosses one bridge channel, alternating
	// direction, so committed flow nets out and failures are
	// attributable to in-flight holds — the contention scenario.
	Fixture string

	// HubFailureFrac, when positive, closes every channel of the
	// highest-degree node at this fraction of Duration — the targeted
	// hub-failure scenario. In-flight holds crossing the hub abort when
	// their spans resume (DynamicResult.SpanAborts counts them).
	HubFailureFrac float64

	ScaleFactor  float64
	MiceFraction float64

	Duration float64 // virtual seconds simulated; positive and finite

	Arrival string  // ArrivalPoisson, ArrivalFlashCrowd or ArrivalDiurnal
	Rate    float64 // mean payments per virtual second; positive and finite
	Peak    float64 // flash-crowd rate multiplier / diurnal relative swing

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
	// every channel of the top-degree node by this factor at
	// FeeShiftFrac · Duration — the fee-war scenario: the network's
	// busiest hub repricing mid-run. Fee-sensitive routing (Flash's LP)
	// shifts volume around the hub; fee-blind schemes pay up.
	FeeShiftFactor float64
	FeeShiftFrac   float64

	// LatencyMedian, when positive, assigns every channel a virtual RTT
	// drawn log-normally with this median (seconds) and shape
	// LatencySigma (default 0.6 when unset) from a scenario-seeded
	// stream — the latency model every scheme replays identically.
	// Zero leaves the network latency-free: every event time is
	// byte-identical to the pre-latency engine.
	LatencyMedian float64
	LatencySigma  float64

	Schemes []string

	// Router carries the Flash knobs every scheme of the cell shares.
	Router RouterSpec

	// DynamicOptions are the engine settings every scheme's run uses.
	// When Registry is set the per-scheme router statistics and network
	// hold/message counters are also registered as scheme-labelled
	// gauges.
	DynamicOptions
}

// DynamicSchemeResult pairs a scheme with its dynamic-run result.
type DynamicSchemeResult struct {
	Scheme string
	Result DynamicResult
}

// FixtureBarbell selects the BuildContention barbell topology and its
// cross-bridge workload in DynamicScenario.Fixture.
const FixtureBarbell = "barbell"

// DynamicScenarioNames lists the scenario catalogue in presentation
// order.
var DynamicScenarioNames = []string{"steady", "flash-crowd", "depletion-rebalance", "churn", "contention", "hub-failure", "demand-drift", "fee-war", "latency-slo", "griefing"}

// NamedDynamicScenario returns a catalogue scenario over the given
// topology:
//
//   - "steady": Poisson arrivals at a constant rate — the dynamic
//     baseline, matching the static replay's load profile.
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
func NamedDynamicScenario(name, kind string, nodes int) (DynamicScenario, error) {
	sc := DynamicScenario{
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
		sc.FeeShiftFrac = 0.5
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
		return sc, fmt.Errorf("sim: unknown dynamic scenario %q (have %v)", name, DynamicScenarioNames)
	}
	return sc, nil
}

// arrivalProcess builds the scenario's arrival process.
func (sc DynamicScenario) arrivalProcess() (trace.ArrivalProcess, error) {
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
		if swing >= 1 {
			swing = 0.95 // the modulated rate must stay positive
		}
		return trace.Diurnal{MeanRate: sc.Rate, Swing: swing, Period: sc.Duration / 2}, nil
	default:
		return nil, fmt.Errorf("sim: unknown arrival process %q", sc.Arrival)
	}
}

// RunDynamicScenario executes a dynamic scenario: every scheme replays
// an identically-seeded workload over an identically-seeded network
// under the identical churn schedule, so scheme results are directly
// comparable. The churn schedule, latent channels, arrival times and
// payment contents are all pure functions of the scenario seed.
func RunDynamicScenario(sc DynamicScenario) ([]DynamicSchemeResult, error) {
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
	arr, err := sc.arrivalProcess()
	if err != nil {
		return nil, err
	}

	results := make([]DynamicSchemeResult, 0, len(sc.Schemes))
	for _, scheme := range sc.Schemes {
		var (
			net       *pcn.Network
			stream    trace.PaymentSource
			threshold float64
			churn     []event.Event
		)
		switch sc.Fixture {
		case "":
			churnRNG := newChurnRNG(sc.Seed)
			n, latent, err := buildNetwork(sc.Kind, sc.Nodes, sc.ScaleFactor, 0, 0, sc.Seed, sc.LatentChannels, churnRNG)
			if err != nil {
				return nil, err
			}
			net = n
			churn = buildChurnSchedule(sc, net, latent, churnRNG)

			threshold, err = calibrateThreshold(sc, net.Graph())
			if err != nil {
				return nil, err
			}
			gen, err := workloadFor(sc.Kind, net.Graph(), sc.Seed)
			if err != nil {
				return nil, err
			}
			stream, err = trace.NewStream(gen, arr, sc.Seed)
			if err != nil {
				return nil, err
			}
		case FixtureBarbell:
			var err error
			net, stream, threshold, err = buildBarbellCell(sc, arr)
			if err != nil {
				return nil, err
			}
			churn = buildChurnSchedule(sc, net, nil, newChurnRNG(sc.Seed))
		default:
			return nil, fmt.Errorf("sim: unknown dynamic fixture %q", sc.Fixture)
		}
		// The latency model covers latent channels too, so channels that
		// first open mid-run carry RTTs; its RNG stream is independent of
		// every other draw, so turning latency on never perturbs
		// topology, balances, churn or workload.
		if sc.LatencyMedian > 0 {
			sigma := sc.LatencySigma
			if sigma <= 0 {
				sigma = 0.6
			}
			net.AssignLatenciesLogNormal(newLatencyRNG(sc.Seed), sc.LatencyMedian, sigma)
		}
		spec := sc.Router
		spec.Scheme, spec.Threshold, spec.Seed = scheme, threshold, sc.Seed
		r, err := BuildRouter(spec)
		if err != nil {
			return nil, err
		}
		if sc.Registry != nil {
			RegisterRouterMetrics(sc.Registry, scheme, r)
			RegisterNetworkMetrics(sc.Registry, scheme, net)
		}
		res, err := RunDynamic(net, r, stream, sc.Duration, churn, threshold, sc.DynamicOptions)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", scheme, err)
		}
		results = append(results, DynamicSchemeResult{Scheme: scheme, Result: res})
	}
	return results, nil
}

// calibrateThreshold fixes the elephant threshold from a workload
// sample drawn with the scenario's own seed: the dynamic stream is
// lazy, so the threshold is pinned on an identically-seeded throwaway
// generator (whose sample is, by construction, the prefix of the
// payments the stream will actually produce).
func calibrateThreshold(sc DynamicScenario, g *topo.Graph) (float64, error) {
	n := int(sc.Rate * sc.Duration)
	if n < 200 {
		n = 200
	}
	if n > 4000 {
		n = 4000
	}
	gen, err := workloadFor(sc.Kind, g, sc.Seed)
	if err != nil {
		return 0, err
	}
	return core.ThresholdForMiceFraction(trace.Amounts(gen.Generate(n)), sc.MiceFraction), nil
}

// The barbell fixture's funding and payment size: a bridge of 80 per
// direction fits ~8 concurrent 10-unit holds, and the spokes never
// bind.
const (
	barbellSpokeBalance  = 1e6
	barbellBridgeBalance = 80
	barbellAmount        = 10
)

// buildBarbellCell constructs the contention fixture's network and
// workload: a BuildContention barbell (spoke count derived from
// sc.Nodes) and a lazy cross-bridge payment stream under the
// scenario's arrival process. The elephant threshold equals the fixed
// payment amount, so every payment classifies as a mouse — the
// scenario isolates hold contention, not size differentiation.
func buildBarbellCell(sc DynamicScenario, arr trace.ArrivalProcess) (*pcn.Network, trace.PaymentSource, float64, error) {
	spokes := (sc.Nodes - 2) / 2
	if spokes < 2 {
		spokes = 2
	}
	net, _, err := BuildContention(spokes, barbellSpokeBalance, barbellBridgeBalance, barbellAmount)
	if err != nil {
		return nil, nil, 0, err
	}
	stream := &barbellStream{
		spokes: spokes,
		arr:    arr,
		rng:    stats.NewRNG(sc.Seed, 0xBA2B),
	}
	return net, stream, barbellAmount, nil
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
func buildChurnSchedule(sc DynamicScenario, net *pcn.Network, latent []topo.Edge, rng *rand.Rand) []event.Event {
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
	// the configured instant. Like the hub failure, this consumes no
	// randomness.
	if sc.FeeShiftFactor > 0 {
		frac := sc.FeeShiftFrac
		if frac <= 0 || frac >= 1 {
			frac = 0.5
		}
		hub := topDegreeNode(g)
		at := sc.Duration * frac
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
