// Package sim replays payment workloads against a payment channel
// network under a chosen routing scheme and collects the paper's
// evaluation metrics: success ratio, success volume, probing messages,
// and fee-to-volume ratio (§4.1 "Metrics"), plus processing delay for
// the testbed-style comparisons.
//
// Payments arrive at senders sequentially by default, exactly as in the
// paper's simulation setup. Options.Workers switches to a concurrent
// replay: N workers drain the payment stream against the shared
// network, the contention model of a live offchain system where many
// senders pay at once. Workers ≤ 1 reproduces the sequential metrics
// bit-for-bit; workers > 1 keeps every per-payment random choice
// deterministic (seeded from the payment ID, not the worker) but lets
// payment interleaving — and therefore balance evolution — vary, as it
// does in reality.
package sim

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/parallel"
	"repro/internal/pcn"
	"repro/internal/route"
	"repro/internal/telemetry"
	"repro/internal/topo"
	"repro/internal/trace"
)

// Metrics aggregates one simulation run. Mice/elephant sub-metrics are
// classified against the threshold passed to Run.
type Metrics struct {
	Payments      int
	Successes     int
	SuccessVolume float64
	AttemptVolume float64

	FeesPaid       float64
	ProbeMessages  int64
	CommitMessages int64

	MicePayments       int
	MiceSuccesses      int
	MiceSuccessVolume  float64
	MiceProbeMessages  int64
	ElephantPayments   int
	ElephantSuccesses  int
	ElephantSuccessVol float64
	ElephantProbeMsgs  int64

	TotalDelay time.Duration
	MiceDelay  time.Duration
}

// Merge folds another shard's counters into m. Every field is an
// order-independent sum, which is what lets the concurrent replay (and
// every other harness sharding metrics per worker — the testbed, the
// dynamic engine's time-series windows) aggregate shards without locks
// on the hot path.
func (m *Metrics) Merge(o Metrics) {
	m.Payments += o.Payments
	m.Successes += o.Successes
	m.SuccessVolume += o.SuccessVolume
	m.AttemptVolume += o.AttemptVolume
	m.FeesPaid += o.FeesPaid
	m.ProbeMessages += o.ProbeMessages
	m.CommitMessages += o.CommitMessages
	m.MicePayments += o.MicePayments
	m.MiceSuccesses += o.MiceSuccesses
	m.MiceSuccessVolume += o.MiceSuccessVolume
	m.MiceProbeMessages += o.MiceProbeMessages
	m.ElephantPayments += o.ElephantPayments
	m.ElephantSuccesses += o.ElephantSuccesses
	m.ElephantSuccessVol += o.ElephantSuccessVol
	m.ElephantProbeMsgs += o.ElephantProbeMsgs
	m.TotalDelay += o.TotalDelay
	m.MiceDelay += o.MiceDelay
}

// SuccessRatio is the fraction of payments fully delivered.
func (m Metrics) SuccessRatio() float64 {
	if m.Payments == 0 {
		return 0
	}
	return float64(m.Successes) / float64(m.Payments)
}

// MiceSuccessRatio is the success ratio over mice payments only.
func (m Metrics) MiceSuccessRatio() float64 {
	if m.MicePayments == 0 {
		return 0
	}
	return float64(m.MiceSuccesses) / float64(m.MicePayments)
}

// ElephantSuccessRatio is the success ratio over elephant payments
// only.
func (m Metrics) ElephantSuccessRatio() float64 {
	if m.ElephantPayments == 0 {
		return 0
	}
	return float64(m.ElephantSuccesses) / float64(m.ElephantPayments)
}

// FeeRatio is total fees over delivered volume (the paper's Figure 9
// metric, "unit transaction fees in percentage ... obtained over all
// payments").
func (m Metrics) FeeRatio() float64 {
	if m.SuccessVolume == 0 {
		return 0
	}
	return m.FeesPaid / m.SuccessVolume
}

// MeanDelay is the average per-payment processing time.
func (m Metrics) MeanDelay() time.Duration {
	if m.Payments == 0 {
		return 0
	}
	return m.TotalDelay / time.Duration(m.Payments)
}

// MeanMiceDelay is the average processing time of mice payments.
func (m Metrics) MeanMiceDelay() time.Duration {
	if m.MicePayments == 0 {
		return 0
	}
	return m.MiceDelay / time.Duration(m.MicePayments)
}

// String renders the headline numbers.
func (m Metrics) String() string {
	return fmt.Sprintf("success %d/%d (%.1f%%), volume %.4g, probes %d, feeRatio %.3f%%",
		m.Successes, m.Payments, 100*m.SuccessRatio(), m.SuccessVolume,
		m.ProbeMessages, 100*m.FeeRatio())
}

// Options tunes how a workload is replayed.
type Options struct {
	// Workers is the number of goroutines draining the payment stream.
	// 0 or 1 replays sequentially in payment order — bit-for-bit the
	// historical behavior. The zero value deliberately means
	// *sequential*, not GOMAXPROCS, so zero-valued Options keep their
	// historical semantics; CLIs that want "0 = all cores"
	// resolve that before building Options. Larger values model
	// concurrent senders: the per-payment metrics become
	// interleaving-dependent, but every random routing choice stays
	// deterministic per payment (see Seed).
	Workers int

	// Seed derives each payment's private RNG in concurrent mode
	// (mixed with the payment ID), so a payment's random choices — e.g.
	// Flash's mice path order — do not depend on which worker runs it.
	// Unused when Workers ≤ 1.
	Seed int64

	// Prewarm parallel-builds Flash's mice routing table for every
	// distinct mice (sender, receiver) pair of the workload before the
	// replay starts, using Workers goroutines. Only effective when the
	// router is *core.Flash; other routers ignore it.
	Prewarm bool

	// Retries re-routes a payment that failed to deliver up to this
	// many additional times — the recovery policy for a payment that
	// aborted because a concurrent hold lost a race. Between attempts
	// the concurrent replay sleeps a seeded, jittered exponential
	// backoff (so the competing payments it raced can settle); the
	// sequential replay retries immediately, where a retry can still
	// win by drawing a different mice path order. 0 — the default —
	// preserves the historical single-attempt semantics exactly.
	Retries int

	// FlowSink, when non-nil, receives one telemetry.FlowRecord per
	// completed payment (after its final attempt). Telemetry is strictly
	// observer-only: a nil sink costs a single branch, and any sink
	// leaves the replay's metrics and random sequences untouched.
	FlowSink telemetry.Sink
}

// RunOpts replays payments over net using r. miceThreshold classifies
// payments for the per-class metrics (payments with amount ≤
// miceThreshold are mice); it does not influence routing — routers carry
// their own thresholds. Options{} or Workers ≤ 1 is the sequential
// replay, larger Workers dispatch payments to a worker pool over the
// shared network.
func RunOpts(net *pcn.Network, r route.Router, payments []trace.Payment, miceThreshold float64, opts Options) (Metrics, error) {
	if opts.Prewarm {
		prewarmRouter(net, r, payments, opts.Workers)
	}
	if opts.Workers <= 1 {
		return runSequential(net, r, payments, miceThreshold, opts)
	}
	return runConcurrent(net, r, payments, miceThreshold, opts)
}

// Record folds one completed payment into m: classification against
// miceThreshold, delay and message accounting, and — when delivered —
// the success bookkeeping. It is the single metrics-recording path
// shared by the sequential replay, the concurrent workers' shards, the
// dynamic engine's time-series windows, and the TCP testbed harness.
// probeMsgs/commitMsgs/elapsed cover every routing attempt the payment
// made (retries included).
func (m *Metrics) Record(amount, miceThreshold float64, elapsed time.Duration, probeMsgs, commitMsgs int64, fees float64, delivered bool) {
	isMouse := amount <= miceThreshold
	m.Payments++
	m.AttemptVolume += amount
	m.TotalDelay += elapsed
	m.ProbeMessages += probeMsgs
	m.CommitMessages += commitMsgs
	if isMouse {
		m.MicePayments++
		m.MiceDelay += elapsed
		m.MiceProbeMessages += probeMsgs
	} else {
		m.ElephantPayments++
		m.ElephantProbeMsgs += probeMsgs
	}
	if delivered {
		m.Successes++
		m.SuccessVolume += amount
		m.FeesPaid += fees
		if isMouse {
			m.MiceSuccesses++
			m.MiceSuccessVolume += amount
		} else {
			m.ElephantSuccesses++
			m.ElephantSuccessVol += amount
		}
	}
}

// routeOutcome is the accounting of one routing attempt (or, summed,
// of a payment's whole attempt sequence).
type routeOutcome struct {
	elapsed    time.Duration
	probeMsgs  int64
	commitMsgs int64
	probeOps   int
	paths      int
	fees       float64
	delivered  bool

	// Virtual latency charged by the attempt, integer nanoseconds
	// (zero unless the network carries per-channel RTTs): probe legs
	// and commit-phase legs, separately, mirroring the message split.
	probeLatNanos  int64
	commitLatNanos int64
}

// add accumulates a later attempt into o (fees/delivered are taken
// from the successful attempt; failed attempts pay no fees; paths
// reflect the latest attempt — the one whose holds stood when the
// payment settled).
func (o *routeOutcome) add(a routeOutcome) {
	o.elapsed += a.elapsed
	o.probeMsgs += a.probeMsgs
	o.commitMsgs += a.commitMsgs
	o.probeOps += a.probeOps
	o.paths = a.paths
	o.fees += a.fees
	o.delivered = o.delivered || a.delivered
	o.probeLatNanos += a.probeLatNanos
	o.commitLatNanos += a.commitLatNanos
}

// routeAttempt runs one routing attempt for p: a fresh session, one
// Route call, defensive finishing. When seeded, rngSeed becomes the
// session's per-payment random source. The returned error is an
// infrastructure failure; routing failures are reported through
// routeOutcome.delivered.
func routeAttempt(net *pcn.Network, r route.Router, p trace.Payment, rngSeed int64, seeded bool) (routeOutcome, error) {
	_, out, err := attemptPayment(net, r, p, rngSeed, seeded, false)
	return out, err
}

// attemptPayment is the single attempt protocol behind routeAttempt
// and holdAttempt: Begin, optional per-payment RNG, optional
// DeferCommit, one Route call, defensive finishing, outcome
// accounting. A session that suspended on the yield seam is returned
// for the caller to Resume; otherwise the returned session is nil and
// the outcome is final.
func attemptPayment(net *pcn.Network, r route.Router, p trace.Payment, rngSeed int64, seeded, deferCommit bool) (*pcn.Tx, routeOutcome, error) {
	tx, err := net.Begin(p.Sender, p.Receiver, p.Amount)
	if err != nil {
		return nil, routeOutcome{}, fmt.Errorf("sim: payment %d: %w", p.ID, err)
	}
	if seeded {
		tx.SetRNGSeed(rngSeed)
	}
	if deferCommit {
		tx.DeferCommit()
	}
	//flashvet:allow determinism/wallclock observer-only wall-elapsed metric; never feeds routing, virtual time or event order
	start := time.Now()
	rerr := r.Route(tx)
	//flashvet:allow determinism/wallclock observer-only wall-elapsed metric; never feeds routing, virtual time or event order
	elapsed := time.Since(start)
	if !tx.Finished() {
		// Defensive: a router must finish its session; treat an
		// unfinished one as failed and release its holds.
		if aerr := tx.Abort(); aerr != nil {
			return nil, routeOutcome{}, fmt.Errorf("sim: payment %d left unfinished and unabortable: %w", p.ID, aerr)
		}
		rerr = fmt.Errorf("sim: router %s left session unfinished", r.Name())
	}
	out := routeOutcome{
		elapsed:        elapsed,
		probeMsgs:      int64(tx.ProbeMessages()),
		commitMsgs:     int64(tx.CommitMessages()),
		probeOps:       tx.ProbeOps(),
		paths:          tx.PathsUsed(),
		delivered:      rerr == nil,
		probeLatNanos:  tx.ProbeLatencyNanos(),
		commitLatNanos: tx.CommitLatencyNanos(),
	}
	if tx.Suspended() {
		// Delivery, CONFIRM/REVERSE messages and fees settle at Resume.
		return tx, out, nil
	}
	if out.delivered {
		out.fees = tx.FeesPaid()
	}
	return nil, out, nil
}

// holdAttempt is routeAttempt with the commit deferred across the
// hold-span seam (route.Yielder): the router runs to its commit/abort
// decision as usual, but a committed payment's funds stay locked — the
// suspended session is returned to the caller, who settles it later
// via Resume (one virtual service time later, in the dynamic engine).
// Aborted payments resolve immediately and return a nil session, like
// routeAttempt. For a suspended session the outcome's delivered flag
// and fee/commit-message accounting are provisional: Resume decides
// delivery and adds the CONFIRM (or REVERSE) costs.
func holdAttempt(net *pcn.Network, r route.Router, p trace.Payment, rngSeed int64, seeded bool) (*pcn.Tx, routeOutcome, error) {
	return attemptPayment(net, r, p, rngSeed, seeded, true)
}

// retryBackoff is the jittered exponential backoff before retry
// attempt (1-based): 50µs · 2^(attempt-1), scaled by a random factor
// in [0.5, 1.5) so racing retriers don't re-collide in lockstep.
func retryBackoff(attempt int, rng *rand.Rand) time.Duration {
	base := 50 * time.Microsecond << uint(attempt-1)
	if base > 5*time.Millisecond {
		base = 5 * time.Millisecond
	}
	return time.Duration(float64(base) * (0.5 + rng.Float64()))
}

// attemptSeed derives the per-attempt session seed: attempt 0 uses the
// payment seed unchanged (preserving single-attempt behavior exactly),
// retries re-mix so a retried mouse draws a fresh path order.
func attemptSeed(rngSeed int64, attempt int) int64 {
	if attempt == 0 {
		return rngSeed
	}
	return paymentSeed(rngSeed, int64(attempt))
}

// replayOne routes a single payment — retrying failed deliveries up to
// opts.Retries times — and accumulates its metrics into m. Degenerate
// payments (self-pay, non-positive amount) are skipped, contributing
// nothing. backoffSleep selects the concurrent replay's real jittered
// sleep between attempts; the sequential replay retries immediately.
// A non-nil sink receives the payment's flow record after its final
// attempt, stamped with the trace timestamp as virtual time.
func replayOne(net *pcn.Network, r route.Router, p trace.Payment, miceThreshold float64, m *Metrics, rngSeed int64, seeded bool, retries int, backoffSleep bool, sink telemetry.Sink) error {
	if p.Sender == p.Receiver || p.Amount <= 0 {
		return nil
	}
	var (
		total      routeOutcome
		backoffRNG *rand.Rand
		attempts   int
	)
	for attempt := 0; attempt <= retries; attempt++ {
		if attempt > 0 && backoffSleep {
			if backoffRNG == nil {
				backoffRNG = rand.New(rand.NewSource(paymentSeed(rngSeed, int64(p.ID)^0x5EED)))
			}
			time.Sleep(retryBackoff(attempt, backoffRNG))
		}
		out, err := routeAttempt(net, r, p, attemptSeed(rngSeed, attempt), seeded)
		if err != nil {
			return err
		}
		total.add(out)
		attempts = attempt + 1
		if out.delivered {
			break
		}
	}
	m.Record(p.Amount, miceThreshold, total.elapsed, total.probeMsgs, total.commitMsgs, total.fees, total.delivered)
	if sink != nil {
		vt := p.Time * trace.SecondsPerDay
		outcome := telemetry.OutcomeFailed
		if total.delivered {
			outcome = telemetry.OutcomeDelivered
		}
		emitFlow(sink, r.Name(), p, miceThreshold, total, attempts, vt, vt, outcome)
	}
	return nil
}

// runSequential replays payments one at a time in order, the paper's
// simulation setup. No per-payment RNG is attached, so routers consume
// their own seeded generators in the historical sequence.
func runSequential(net *pcn.Network, r route.Router, payments []trace.Payment, miceThreshold float64, opts Options) (Metrics, error) {
	var m Metrics
	for _, p := range payments {
		if err := replayOne(net, r, p, miceThreshold, &m, 0, false, opts.Retries, false, opts.FlowSink); err != nil {
			return m, err
		}
	}
	return m, nil
}

// paymentSeed mixes the base seed with a payment ID (splitmix64-style
// finalizer), giving each payment an independent, reproducible RNG
// stream regardless of which worker replays it.
func paymentSeed(base int64, id int64) int64 {
	z := uint64(base) + (uint64(id)+1)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64(z ^ (z >> 31))
}

// runConcurrent drains the payment stream with opts.Workers goroutines
// sharing the network and router. Each worker accumulates metrics into
// its own shard (merged afterwards), so the hot path takes no
// simulation-level locks — all synchronization lives in the per-channel
// network locks and the router's sharded tables.
func runConcurrent(net *pcn.Network, r route.Router, payments []trace.Payment, miceThreshold float64, opts Options) (Metrics, error) {
	var (
		failed   atomic.Bool
		errOnce  sync.Once
		firstErr error
	)
	shards := make([]Metrics, parallel.Clamp(len(payments), opts.Workers))
	parallel.ForEach(len(payments), opts.Workers, func(worker, i int) {
		if failed.Load() {
			return
		}
		p := payments[i]
		seed := paymentSeed(opts.Seed, int64(p.ID))
		if err := replayOne(net, r, p, miceThreshold, &shards[worker], seed, true, opts.Retries, true, opts.FlowSink); err != nil {
			errOnce.Do(func() { firstErr = err })
			failed.Store(true)
		}
	})
	var m Metrics
	for i := range shards {
		m.Merge(shards[i])
	}
	return m, firstErr
}

// prewarmRouter bulk-builds Flash's mice routing tables for the
// workload's distinct mice pairs with a bounded worker pool. A no-op
// for other router types. Pairs are classified against the router's
// own elephant threshold — the one routeMice actually consults — not
// the sim-level metrics threshold, which may legitimately differ.
func prewarmRouter(net *pcn.Network, r route.Router, payments []trace.Payment, workers int) {
	fl, ok := r.(*core.Flash)
	if !ok {
		return
	}
	threshold := fl.Config().Threshold
	seen := make(map[[2]topo.NodeID]struct{}, len(payments))
	var pairs []core.Pair
	for _, p := range payments {
		if p.Sender == p.Receiver || p.Amount <= 0 || p.Amount > threshold {
			continue
		}
		key := [2]topo.NodeID{p.Sender, p.Receiver}
		if _, dup := seen[key]; dup {
			continue
		}
		seen[key] = struct{}{}
		pairs = append(pairs, core.Pair{Sender: p.Sender, Receiver: p.Receiver})
	}
	fl.Prewarm(net.Graph(), pairs, workers)
}
