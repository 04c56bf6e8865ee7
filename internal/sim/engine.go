package sim

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/mem"
	"repro/internal/pcn"
	"repro/internal/route"
	"repro/internal/trace"
)

// dynPayment is a payment moving through the engine: queued, in
// service, or awaiting a retry. Records are recycled: complete puts a
// finished one on the arrival stage's free list, and pull overwrites it
// with the next arrival, so the engine makes records only up to the
// most payments ever pending at once, in chunks (mem.Slab). A record is in the pending
// table or on the free list, never both — which is why pull refuses an
// arrival whose ID is still pending.
type dynPayment struct {
	p           trace.Payment
	attempt     int
	arrival     float64      // first-attempt virtual arrival instant
	spanAborted bool         // latest attempt aborted at span resume
	expired     bool         // latest attempt expired at its deadline
	total       routeOutcome // accumulated across attempts
	last        routeResult  // the latest attempt's outcome, once routed
}

type routeResult struct {
	out routeOutcome
	tx  *pcn.Tx // suspended session awaiting Resume (hold-span mode), else nil
	err error
}

// RunDynamic replays a payment source against net under r inside a
// discrete-event loop: payment arrivals are pulled lazily from src
// (one look-ahead event at a time, so unbounded workloads cost O(1)
// memory), churn events mutate the live network as the virtual clock
// passes them, and completed payments are recorded both into the
// aggregate metrics and into per-window time-series buckets.
//
// Churn semantics: ChannelClose freezes a channel (and, when r is
// Flash, invalidates the routing-table entries crossing it);
// ChannelOpen reopens it, funding each direction with the event's
// Amount when positive; Rebalance evens a channel's directions;
// DemandShift rescales the source's payment amounts when the source
// supports it (trace.Stream does), including the engine's one
// look-ahead arrival already sampled under the old scale; FeeShift
// rescales a channel's fee schedules. Shift factors are validated at
// schedule-ingest time (positive and finite), so a typo'd factor fails
// loudly instead of no-opping.
//
// With Workers ≤ 1, Service = 0 and arrivals pinned to an existing
// trace (trace.NewReplayStream) this is the paper's sequential replay
// — Replay is exactly that call, pinned to the seed goldens.
//
// With Service > 0 payments hold funds across virtual time (hold
// spans, see DynamicOptions.Service). Every run is deterministic — same
// seed, same fingerprint, at any station count — because every routing
// decision runs inline on the event loop in (Time, Seq) order.
func RunDynamic(net *pcn.Network, r route.Router, src trace.PaymentSource, horizon float64, churn []event.Event, miceThreshold float64, opts DynamicOptions) (DynamicResult, error) {
	e, err := newEngine(net, r, src, horizon, churn, miceThreshold, opts)
	if err != nil {
		return DynamicResult{}, err
	}
	return e.run()
}

// engine is one RunDynamic run. run pops events in (Time, Seq) order
// and hands each to one handler per event kind: arrive, settle,
// applyChurn and controlTick. The arrival and window stages own their
// state; the control stage's lives in controlState (control.go).
type engine struct {
	net           *pcn.Network
	r             route.Router
	fl            *core.Flash // nil for non-Flash routers
	opts          DynamicOptions
	miceThreshold float64
	workers       int  // service stations, at least 1
	spans         bool // Service > 0: hold spans (see DynamicOptions.Service)
	latOn         bool // the network carries per-channel RTTs

	queue    event.Queue
	clock    event.Clock
	log      event.Log
	res      DynamicResult
	obs      *dynObserver
	schedRNG *rand.Rand // service times and retry backoffs, independent of routing

	pending pendingTable
	busy    int
	waitQ   []*dynPayment // payments awaiting a free station, FIFO

	// epoch is the run's one wall-clock instant; runAttempt times Route
	// as two monotonic readings since it.
	epoch time.Time

	arrivals arrivalStage
	windows  windowSeries

	// curThreshold is the routing threshold: the router's own for
	// Flash (a control policy moves it), the metrics threshold
	// otherwise. Reported per window and as FinalThreshold.
	curThreshold float64
	ctl          *controlState // nil when no controller is engaged
}

// newEngine validates a run and sets it up: the churn schedule and the
// first control tick are queued, the first arrival is pulled by run.
func newEngine(net *pcn.Network, r route.Router, src trace.PaymentSource, horizon float64, churn []event.Event, miceThreshold float64, opts DynamicOptions) (*engine, error) {
	if !(horizon > 0) || math.IsInf(horizon, 1) {
		return nil, fmt.Errorf("sim: dynamic horizon must be positive and finite, got %v", horizon)
	}
	// Sources that can check their arrival process (trace.Stream,
	// barbellStream) do, so a zero-rate one never queues +Inf/NaN times.
	if v, ok := src.(interface{ Validate() error }); ok {
		if err := v.Validate(); err != nil {
			return nil, fmt.Errorf("sim: payment source: %w", err)
		}
	}
	if err := opts.validate(); err != nil {
		return nil, err
	}
	fl, _ := r.(*core.Flash)
	e := &engine{
		net: net, r: r, fl: fl, opts: opts,
		miceThreshold: miceThreshold,
		workers:       max(opts.Workers, 1),
		spans:         opts.Service > 0,
		latOn:         net.HasLatency(),
		log:           event.Log{Retain: opts.recordLog},
		obs:           newDynObserver(r, net, opts.FlowSink, opts.Registry),

		arrivals:     arrivalStage{src: src, horizon: horizon, scale: 1},
		windows:      newWindowSeries(opts.Window, horizon),
		curThreshold: miceThreshold,
	}
	e.res = DynamicResult{Horizon: horizon, LatencyOn: e.latOn || opts.Deadline > 0, Deadline: opts.Deadline}
	e.schedRNG = rand.New(rand.NewSource(paymentSeed(opts.Seed, 0x5C4ED)))
	for _, ev := range churn {
		switch ev.Kind {
		case event.ChannelOpen, event.ChannelClose, event.Rebalance:
		case event.DemandShift, event.FeeShift:
			// A factor that is not positive and finite would silently
			// no-op (SetAmountScale ignores it) or poison every later fee.
			if f := ev.Amount; math.IsNaN(f) || math.IsInf(f, 0) || f <= 0 {
				return nil, fmt.Errorf("sim: %v factor must be positive and finite, got %v", ev.Kind, f)
			}
		default:
			return nil, fmt.Errorf("sim: churn schedule contains %v event", ev.Kind)
		}
		if ev.Time < horizon {
			e.queue.Schedule(ev)
		}
	}
	if fl != nil {
		e.curThreshold = fl.Threshold()
	}
	var err error
	if e.ctl, err = newControlState(opts.Control, opts.controlHook, fl); err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	if e.ctl != nil && e.windows.width < horizon {
		e.queue.Schedule(event.Event{Time: e.windows.width, Kind: event.ControlUpdate})
	}
	return e, nil
}

// run drains the event queue, one handler per event kind, and returns
// the result. Every return, an error's included, carries the final
// threshold and the log evidence (see finish).
func (e *engine) run() (DynamicResult, error) {
	//flashvet:allow determinism/wallclock observer-only wall-elapsed metric; never feeds routing, virtual time or event order
	e.epoch = time.Now()
	if err := e.arrivals.pull(&e.queue, &e.pending); err != nil {
		return e.finish(err)
	}
	for e.queue.Len() > 0 {
		ev, _ := e.queue.Pop()
		e.clock.AdvanceTo(ev.Time)
		if ev.Kind == event.ControlUpdate {
			e.controlTick(ev)
			continue
		}
		e.log.Record(ev)
		var err error
		switch ev.Kind {
		case event.PaymentArrival:
			err = e.arrive(ev)
		case event.PaymentComplete, event.DeadlineExpiry:
			err = e.settle(ev)
		default:
			err = e.applyChurn(ev)
		}
		if err != nil {
			return e.finish(err)
		}
	}
	return e.finish(nil)
}

// finish copies what the stages hold into the result and publishes
// the final counters to the observer.
func (e *engine) finish(err error) (DynamicResult, error) {
	if e.obs != nil {
		e.obs.publish()
	}
	e.res.Windows = e.windows.list
	e.res.Latency.sumWindows(e.res.Windows)
	e.res.FinalThreshold = e.curThreshold
	if e.ctl != nil {
		e.res.ControlOn = true
		e.res.ControlDecisions = e.ctl.decisions
		e.res.ThresholdUpdates = e.ctl.thresholdUpdates
		e.res.Controllers = e.ctl.knobStatus()
	}
	e.res.EventCounts = e.log.Counts()
	e.res.Fingerprint = e.log.Fingerprint()
	e.res.Log = e.log.Events()
	return e.res, err
}

// arrive handles a PaymentArrival: a first attempt is the arrival
// stage's look-ahead record; it pulls the source's next arrival and
// feeds the control plane. Then the attempt is dispatched or, when
// every station is busy, queued.
func (e *engine) arrive(ev event.Event) error {
	var dp *dynPayment
	if ev.Attempt == 0 {
		dp = e.arrivals.lookahead
		if err := e.arrivals.pull(&e.queue, &e.pending); err != nil {
			return err
		}
		if e.ctl != nil {
			e.ctl.plane.ObserveArrival(dp.p.Sender, dp.p.Amount)
		}
	} else {
		dp = e.pending.get(ev.ID)
	}
	dp.attempt = ev.Attempt
	// Under hold spans or a latency model the single station never
	// queues: routing is instantaneous in virtual time, and a payment's
	// residency is its locked holds or delayed settle, not the station,
	// so every arrival probes the network as it stands at its instant.
	if e.busy < e.workers || ((e.spans || e.latOn) && e.workers == 1) {
		e.dispatch(dp, ev.Time)
	} else {
		e.waitQ = append(e.waitQ, dp)
	}
	return nil
}

// dispatch puts dp in service at virtual time t: the attempt routes
// now, on the event loop, and settles after the drawn service time; its
// station stays busy until then. Under hold spans it stops at the yield
// seam — holds placed, commit deferred — and its settle event resumes
// it.
func (e *engine) dispatch(dp *dynPayment, t float64) {
	e.busy++
	service := 0.0
	if e.spans {
		// Drawn unconditionally, so the schedule stream's consumption
		// never depends on routing outcomes.
		service = e.schedRNG.ExpFloat64() * e.opts.Service
		if e.opts.GriefFrac > 0 && trace.HashUnit(e.opts.Seed, int64(dp.p.ID)^griefSalt) < e.opts.GriefFrac {
			// Griefer: override the drawn value (never the draw itself,
			// so grief-off runs replay byte-identically).
			service = e.opts.GriefHold
		}
	}
	runAttempt(&dp.last, e.net, e.r, &dp.p, e.spans, e.epoch)
	if e.spans && dp.last.tx == nil {
		// The attempt failed at the hold phase: nothing is locked, so
		// the payment completes — and its retry clock starts — at its
		// arrival instant. Only suspended payments occupy a service span
		// (residency is the holds, not the station).
		service = 0
	}
	at, kind, lat, resumeLat := e.settleTime(&dp.last, t, service)
	e.scheduleSettle(dp, at, kind)
	if e.opts.audit != nil {
		e.opts.audit(schedAudit{ID: int64(dp.p.ID), Attempt: dp.attempt, At: t, Lat: lat, Service: service,
			ResumeLat: resumeLat, EventAt: at, Expired: kind == event.DeadlineExpiry})
	}
}

// settleTime is when and how an attempt dispatched at t with the given
// service time settles, and the latency legs that put it there: its
// charged probe and commit legs delay the routing decision, and a
// suspended span's settle legs delay its resume. Both are exact zeros
// without RTTs, so the instant reduces to t + service bit for bit. A
// span that cannot settle within its HTLC deadline gets a
// DeadlineExpiry at t + lat + Deadline instead of its PaymentComplete.
func (e *engine) settleTime(rr *routeResult, t, service float64) (at float64, kind event.Kind, lat, resumeLat float64) {
	if e.latOn {
		lat = float64(rr.out.probeLatNanos+rr.out.commitLatNanos) / 1e9
	}
	if rr.tx != nil {
		resumeLat = float64(rr.tx.ResumeLatencyNanos()) / 1e9
	}
	if d := e.opts.Deadline; d > 0 && rr.tx != nil && service+resumeLat > d {
		return t + lat + d, event.DeadlineExpiry, lat, resumeLat
	}
	return t + lat + service + resumeLat, event.PaymentComplete, lat, resumeLat
}

// scheduleSettle queues the attempt's one settle event.
func (e *engine) scheduleSettle(dp *dynPayment, at float64, kind event.Kind) {
	e.queue.Schedule(event.Event{Time: at, Kind: kind, ID: int64(dp.p.ID), Attempt: dp.attempt})
}

// settle handles a PaymentComplete or DeadlineExpiry: the attempt's
// span settles, then the payment completes or is retried, and a
// waiting payment takes the freed station.
func (e *engine) settle(ev event.Event) error {
	dp := e.pending.get(ev.ID)
	e.busy--
	result := &dp.last
	dp.expired, dp.spanAborted = result.settleSpan(ev.Kind == event.DeadlineExpiry)
	if result.err != nil {
		return result.err
	}
	if dp.expired {
		e.res.DeadlineExpiries++
	}
	if dp.spanAborted {
		e.res.SpanAborts++
	}
	dp.total.add(result.out)
	if result.out.delivered || dp.attempt >= e.opts.Retries {
		e.complete(dp, ev.Time)
	} else {
		e.retry(dp, ev.Time)
	}
	if len(e.waitQ) > 0 && e.busy < e.workers {
		next := e.waitQ[0]
		e.waitQ = e.waitQ[1:]
		e.dispatch(next, ev.Time)
	}
	return nil
}

// settleSpan settles a suspended attempt's hold span — Expire at its
// deadline, else Resume, which aborts if churn closed a held channel —
// and re-reads the commit-phase messages, latency and fees from the
// session, its last read: the settled session goes back to
// pcn.ReleaseTx. It reports whether the span expired or aborted. The
// engine schedules one settle event per attempt, so the call here
// always wins.
func (rr *routeResult) settleSpan(expire bool) (expired, aborted bool) {
	tx := rr.tx
	if tx == nil {
		return false, false
	}
	committed := false
	var err error
	if expire {
		err = tx.Expire()
	} else {
		committed, err = tx.Resume()
	}
	if err != nil {
		rr.err = err
		return false, false
	}
	rr.out.delivered = committed
	rr.out.commitMsgs = int64(tx.CommitMessages())
	rr.out.commitLatNanos = tx.CommitLatencyNanos()
	rr.out.fees = 0
	if committed {
		rr.out.fees = tx.FeesPaid()
	}
	rr.tx = nil
	pcn.ReleaseTx(tx)
	return expire, !expire && !committed
}

// complete records a payment's final outcome at virtual time at into
// the aggregate, its window and the observers.
func (e *engine) complete(dp *dynPayment, at float64) {
	e.pending.remove(int64(dp.p.ID))
	t := dp.total
	dp.total = routeOutcome{}
	e.res.Aggregate.Record(dp.p.Amount, e.miceThreshold, t.elapsed, t.probeMsgs, t.commitMsgs, t.fees, t.delivered)
	w := e.window(at)
	w.Metrics.Record(dp.p.Amount, e.miceThreshold, t.elapsed, t.probeMsgs, t.commitMsgs, t.fees, t.delivered)
	if e.ctl != nil {
		// The re-classification view and the controllers' window metrics
		// classify against the threshold in effect for this sender right
		// now — per-sender overrides included — where the fixed-threshold
		// Metrics above keep runs comparable across policies.
		effThr := e.fl.ThresholdFor(dp.p.Sender)
		e.ctl.completedPayment(dp.p.Amount, effThr, t)
		e.res.Adaptive.Record(dp.p.Amount, effThr, t.elapsed, t.probeMsgs, t.commitMsgs, t.fees, t.delivered)
		w.Adaptive.Record(dp.p.Amount, effThr, t.elapsed, t.probeMsgs, t.commitMsgs, t.fees, t.delivered)
	}
	if e.res.LatencyOn && t.delivered {
		// The run's histogram is summed from the windows' at finish.
		e.res.Latency.Summary.Add(at - dp.arrival)
		w.Latency.Observe(at - dp.arrival)
	}
	if e.obs != nil {
		e.obs.completed(dp.p, e.miceThreshold, t, dp.attempt+1, dp.arrival, at, dp.spanAborted, dp.expired, e.curThreshold)
	}
	e.arrivals.free = append(e.arrivals.free, dp)
}

// retry re-queues an undelivered payment after a jittered virtual
// backoff: 50ms · 2^attempt, scaled by [0.5, 1.5) — long enough for the
// racing holds of the same instant to have settled.
func (e *engine) retry(dp *dynPayment, now float64) {
	backoff := 0.05 * float64(uint(1)<<uint(dp.attempt)) * (0.5 + e.schedRNG.Float64())
	id := int64(dp.p.ID)
	e.queue.Schedule(event.Event{Time: now + backoff, Kind: event.PaymentArrival, ID: id, Attempt: dp.attempt + 1})
	if e.opts.audit != nil {
		e.opts.audit(schedAudit{ID: id, Attempt: dp.attempt, At: now,
			Backoff: backoff, EventAt: now + backoff, Retry: true})
	}
}

// applyChurn handles the five churn kinds. A failure names the kind.
func (e *engine) applyChurn(ev event.Event) error {
	var err error
	switch ev.Kind {
	case event.ChannelClose:
		err = e.net.SetChannelOpen(ev.A, ev.B, false)
	case event.ChannelOpen:
		err = e.net.SetChannelOpen(ev.A, ev.B, true)
		if err == nil && ev.Amount > 0 {
			// FundChannel, not SetBalance: funding must never undercut
			// holds a suspended span already owns.
			err = e.net.FundChannel(ev.A, ev.B, ev.Amount, ev.Amount)
		}
	case event.Rebalance:
		_, err = e.net.Rebalance(ev.A, ev.B)
	case event.FeeShift:
		err = e.net.ScaleFee(ev.A, ev.B, ev.Amount)
	case event.DemandShift:
		e.arrivals.rescale(ev.Amount)
	}
	if err != nil {
		return fmt.Errorf("sim: churn %v: %w", ev.Kind, err)
	}
	if e.fl != nil && (ev.Kind == event.ChannelClose || ev.Kind == event.ChannelOpen) {
		e.fl.InvalidateChannel(ev.A, ev.B)
	}
	return nil
}

// controlTick is the control plane's observe/decide/apply pass, run
// once per cadence tick: assemble the window's metrics, let every
// controller decide, apply the decisions to the router, and record the
// adaptive trajectory into the fingerprinted log.
func (e *engine) controlTick(ev event.Event) {
	// Materialise the bucket (and any earlier ones) before any swap, so
	// windows that closed under the old threshold report it.
	w := e.window(ev.Time)
	decisions := e.ctl.plane.Observe(e.ctl.snapshot(e.curThreshold, e.fl.ProbeWorkers()))
	// The bare cadence tick is logged first (knob code 0), then one
	// ControlUpdate per applied decision, each stamped with the
	// effective value the router reports back — the whole adaptive
	// trajectory folds into the fingerprint.
	e.log.Record(ev)
	for _, d := range decisions {
		eff, ok := e.ctl.apply(d, e.fl)
		if !ok {
			continue
		}
		if e.obs != nil {
			e.obs.decided(d.Knob, eff)
		}
		e.log.Record(event.Event{Time: ev.Time, Seq: ev.Seq, Kind: event.ControlUpdate,
			ID: int64(d.Knob), A: d.Sender, Amount: eff})
	}
	e.curThreshold = e.fl.Threshold()
	w.Threshold = e.curThreshold
	if next := ev.Time + e.windows.width; next < e.windows.horizon {
		e.queue.Schedule(event.Event{Time: next, Kind: event.ControlUpdate})
	}
}

// arrivalStage pulls first-attempt arrivals from the source. Exactly
// one future first-attempt arrival is pending at any time, which keeps
// the source lazy and its memory O(1) — and makes that one look-ahead
// payment the only arrival sampled before a demand shift it postdates
// (see rescale).
type arrivalStage struct {
	src       trace.PaymentSource
	horizon   float64
	done      bool          // the source is exhausted or past the horizon
	lookahead *dynPayment   // the pending first-attempt arrival, if any
	scale     float64       // the amount scale the source samples under
	free      []*dynPayment // completed records, reused by pull
	records   mem.Slab[dynPayment]
}

// pull schedules the source's next arrival, if it falls inside the
// horizon. Degenerate payments (self-pay, non-positive amount) are
// skipped. An arrival whose ID is still pending is an error: the two
// payments would share one record.
func (a *arrivalStage) pull(q *event.Queue, pending *pendingTable) error {
	a.lookahead = nil
	for !a.done {
		p, at, ok := a.src.Next()
		if !ok || at >= a.horizon {
			a.done = true
			return nil
		}
		if p.Sender == p.Receiver || p.Amount <= 0 {
			continue
		}
		var dp *dynPayment
		if n := len(a.free); n > 0 {
			dp, a.free = a.free[n-1], a.free[:n-1]
		} else {
			dp = a.records.New()
		}
		if !pending.insert(int64(p.ID), dp) {
			return fmt.Errorf("sim: payment ID %d arrives at %v while an earlier payment with that ID is still pending", p.ID, at)
		}
		*dp = dynPayment{}
		dp.p, dp.arrival = p, at
		a.lookahead = dp
		q.Schedule(event.Event{Time: at, Kind: event.PaymentArrival, ID: int64(p.ID)})
		return nil
	}
	return nil
}

// rescale applies a DemandShift to sources that scale their amounts.
// The look-ahead arrival was sampled under the old scale but arrives
// after the shift, so it is rescaled too: the first post-shift payment
// carries a post-shift amount. (Sources that don't scale — trace
// replays — keep their recorded amounts, and so does their look-ahead.)
func (a *arrivalStage) rescale(factor float64) {
	sh, ok := a.src.(interface{ SetAmountScale(float64) })
	if !ok {
		return
	}
	sh.SetAmountScale(factor)
	if a.lookahead != nil {
		a.lookahead.p.Amount *= factor / a.scale
	}
	a.scale = factor
}

// window returns the bucket containing t (windowSeries.at). A bucket it
// opens after the first closes the ones before it, so the observer
// publishes the router's and network's counters.
func (e *engine) window(t float64) *Window {
	n := len(e.windows.list)
	w := e.windows.at(t, e.curThreshold)
	if e.obs != nil && n > 0 && len(e.windows.list) > n {
		e.obs.publish()
	}
	return w
}

// windowSeries is the run's time series. It never extends past the
// horizon: settle events may land at t ≥ horizon (service times and
// retry backoffs outlive the last arrival), and those drain into the
// final window, whose End is clamped to the horizon.
type windowSeries struct {
	width, horizon float64
	// last is the index of the last bucket whose Start lies strictly
	// inside the horizon — the Ceil can overcount by one when
	// horizon/width carries float error (e.g. 9/0.009), which would
	// otherwise append a phantom zero-width bucket at the horizon.
	last int
	list []Window
}

// newWindowSeries sizes the series; a zero width defaults to a tenth
// of the horizon.
func newWindowSeries(width, horizon float64) windowSeries {
	if width == 0 {
		width = horizon / 10
	}
	last := int(math.Ceil(horizon/width)) - 1
	if last > 0 && float64(last)*width >= horizon {
		last--
	}
	return windowSeries{width: width, horizon: horizon, last: last}
}

// at returns the bucket containing t, materialising it (and any
// earlier ones) with the given threshold.
func (s *windowSeries) at(t, threshold float64) *Window {
	idx := min(int(t/s.width), s.last)
	for len(s.list) <= idx {
		start := float64(len(s.list)) * s.width
		s.list = append(s.list, Window{Start: start, End: min(start+s.width, s.horizon), Threshold: threshold})
	}
	return &s.list[idx]
}
