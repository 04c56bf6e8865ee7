// Package sim replays payment workloads against a payment channel
// network under a chosen routing scheme and collects the paper's
// evaluation metrics: success ratio, success volume, probing messages,
// and fee-to-volume ratio (§4.1 "Metrics"), plus the processing delay
// the TCP testbed measures (§5.3).
//
// Payments arrive at senders one at a time, exactly as in the paper's
// simulation setup. A static replay (Replay) is a zero-churn run of
// the discrete-event engine (RunDynamic) over the fixed trace, so both
// modes share one routing, retry and accounting path.
package sim

import (
	"fmt"
	"time"

	"repro/internal/pcn"
	"repro/internal/route"
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

	// TotalDelay and MiceDelay sum the processing time of every
	// payment and of the mice. The simulator fills them with the wall
	// time of its Route calls; no simulator table or JSON document
	// prints them, and only the benchmark harness reads them, until it
	// times Route itself. The TCP testbed fills them with each
	// payment's processing delay (its Route wall time less the time
	// blocked on round trips), the overhead metric of the paper's §5.3.
	TotalDelay time.Duration
	MiceDelay  time.Duration
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

// Replay replays payments over net using r, one at a time in trace
// order — the paper's simulation setup (§4.1) — as RunDynamic at one
// station with no churn and arrivals pinned to the trace. Payments
// must be in non-decreasing Time with distinct IDs, as trace.Generator
// emits them. miceThreshold only classifies the per-class metrics.
// Empty input yields zero Metrics.
func Replay(net *pcn.Network, r route.Router, payments []trace.Payment, miceThreshold float64) (Metrics, error) {
	if len(payments) == 0 {
		return Metrics{}, nil
	}
	horizon := (payments[len(payments)-1].Time + 1) * trace.SecondsPerDay
	res, err := RunDynamic(net, r, trace.NewReplayStream(payments), horizon, nil, miceThreshold, DynamicOptions{Workers: 1})
	return res.Aggregate, err
}

// Record folds one completed payment into m: classification against
// miceThreshold, delay and message accounting, and — when delivered —
// the success bookkeeping. It is the single metrics-recording path
// shared by the dynamic engine's aggregate and time-series windows and
// the TCP testbed harness.
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

// runAttempt runs one routing attempt for p into rr: Begin, optional
// DeferCommit, one Route call, defensive finishing, outcome accounting.
// rr's error is an infrastructure failure; routing failures are
// reported through routeOutcome.delivered. A plain function, not a
// closure, so the engine's inline call allocates nothing of its own;
// it writes rr in place, so no outcome is copied. Route's wall time is
// the difference of two monotonic readings since epoch, the run's one
// wall-clock instant.
//
// With deferCommit the commit is deferred across the hold-span seam
// (pcn.Tx.DeferCommit): the router runs to its commit/abort decision as
// usual, but a committed payment's funds stay locked — the suspended
// session is returned in rr.tx for the caller to settle later via
// Resume (one virtual service time later, in the dynamic engine).
// Otherwise, and for aborted payments, rr.tx is nil, the outcome is
// final and the session has gone back to pcn.ReleaseTx. For a
// suspended session the outcome's delivered flag and
// fee/commit-message accounting are provisional: Resume decides
// delivery and adds the CONFIRM (or REVERSE) costs.
func runAttempt(rr *routeResult, net *pcn.Network, r route.Router, p *trace.Payment, deferCommit bool, epoch time.Time) {
	tx, err := net.Begin(p.Sender, p.Receiver, p.Amount)
	if err != nil {
		*rr = routeResult{err: fmt.Errorf("sim: payment %d: %w", p.ID, err)}
		return
	}
	if deferCommit {
		tx.DeferCommit()
	}
	//flashvet:allow determinism/wallclock observer-only wall-elapsed metric; never feeds routing, virtual time or event order
	start := time.Since(epoch)
	rerr := r.Route(tx)
	//flashvet:allow determinism/wallclock observer-only wall-elapsed metric; never feeds routing, virtual time or event order
	elapsed := time.Since(epoch) - start
	if !tx.Finished() {
		// Defensive: a router must finish its session; treat an
		// unfinished one as failed and release its holds.
		if aerr := tx.Abort(); aerr != nil {
			*rr = routeResult{err: fmt.Errorf("sim: payment %d left unfinished and unabortable: %w", p.ID, aerr)}
			return
		}
		rerr = fmt.Errorf("sim: router %s left session unfinished", r.Name())
	}
	rr.out = routeOutcome{
		elapsed:        elapsed,
		probeMsgs:      int64(tx.ProbeMessages()),
		commitMsgs:     int64(tx.CommitMessages()),
		probeOps:       tx.ProbeOps(),
		paths:          tx.PathsUsed(),
		delivered:      rerr == nil,
		probeLatNanos:  tx.ProbeLatencyNanos(),
		commitLatNanos: tx.CommitLatencyNanos(),
	}
	rr.err = nil
	if tx.Suspended() {
		// Delivery, CONFIRM/REVERSE messages and fees settle at Resume.
		rr.tx = tx
		return
	}
	rr.tx = nil
	if rr.out.delivered {
		rr.out.fees = tx.FeesPaid()
	}
	pcn.ReleaseTx(tx)
}

// paymentSeed mixes the base seed with an ID (splitmix64-style
// finalizer) into an independent, reproducible seed; the engine seeds
// its schedule stream with it.
func paymentSeed(base int64, id int64) int64 {
	z := uint64(base) + (uint64(id)+1)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64(z ^ (z >> 31))
}
