// Package control is the simulator's adaptive control plane: a
// deterministic feedback layer that owns every runtime-tuned routing
// knob. Before it, adaptivity was scattered — the P² elephant
// threshold was recalibrated inline in the dynamic engine, probe width
// was a static flag even though wider probing costs virtual time and
// messages. Here each knob is moved behind one contract:
//
//	Controller: Observe(window Metrics) []Decision
//
// The engine calls Observe once per control window, on its own event
// loop, passing the window's aggregate Metrics; the controller answers
// with zero or more Decisions — (knob, sender, value) triples — which
// the engine applies to the router and records as fingerprinted
// event.ControlUpdate entries in the applied-event log. Nothing in a
// controller may read wall-clock time, randomness, or map iteration
// order: a controller is a pure function of its observation sequence,
// which is what lets adaptive runs replay byte-identically at
// workers=1.
//
// Controllers that also implement ArrivalObserver are additionally fed
// every first-attempt payment arrival (sender, amount) — the stream
// the threshold estimators run on. Arrivals arrive in event order, so
// the estimator state is deterministic too.
//
// Three concrete policies ship with the package:
//
//   - SmoothedThreshold: EWMA over the per-window P² quantile estimate
//     with confidence-gated swaps — the fix for the raw per-window
//     estimator's heavy-tail wobble, where tail noise in a window's
//     quantile estimate caused threshold churn with no regime change
//     behind it.
//   - PerSenderThreshold: the quantile estimator sharded per sender,
//     mirroring how routing tables are sharded — each sender's demand
//     drifts independently, so each classifies against its own stream.
//   - ProbeWidth: widens speculative probing when round-one probing
//     under-fills elephant demand, and narrows it back when the probe
//     message budget says speculation isn't paying.
//
// RawThreshold is the plain per-window recalibration the engine first
// ran inline: the same estimator and gate, with no smoothing.
//
// Policy is the only input: it selects controllers and the quantile
// they track. Every other tuning value is a documented constant.
package control

import (
	"fmt"

	"repro/internal/topo"
)

// Knob identifies a runtime-tuned routing knob. Values start at 1 so
// that 0 can mark a bare control tick (an observe pass that applied
// nothing) in the event log.
type Knob uint8

const (
	// KnobThreshold is the global elephant classification threshold.
	KnobThreshold Knob = iota + 1
	// KnobSenderThreshold is one sender's threshold override; the
	// decision's Sender field says whose.
	KnobSenderThreshold
	// KnobProbeWidth is the speculative probe width of elephant
	// routing: candidates probed per round.
	KnobProbeWidth

	// NumKnobs is the number of knob codes (for per-knob counters);
	// knob codes are 1-based, so valid codes are 1..NumKnobs-1.
	NumKnobs = int(KnobProbeWidth) + 1
)

// String names the knob for logs, tables and metric labels.
func (k Knob) String() string {
	switch k {
	case KnobThreshold:
		return "threshold"
	case KnobSenderThreshold:
		return "sender-threshold"
	case KnobProbeWidth:
		return "probe-width"
	default:
		return fmt.Sprintf("knob(%d)", uint8(k))
	}
}

// Metrics is one control window's observations, assembled by the
// engine and handed to every controller's Observe: the counts cover
// the payments that completed since the previous observe pass,
// classified elephant against the threshold in effect for their sender
// at completion. They are the probe-width policy's signals; the
// threshold policies read only Threshold. Nothing here depends on
// goroutine scheduling.
type Metrics struct {
	Elephants         int // completed payments classified elephant
	ElephantSuccesses int // elephants fully delivered
	ElephantProbeOps  int // probe operations spent by completed elephants
	ElephantPathsUsed int // paths actually carrying flow in delivered elephant plans

	// Live knob values at observation time, so controllers can reason
	// relative to the current setting without holding private copies.
	Threshold  float64 // global elephant threshold in effect
	ProbeWidth int     // probe width in effect
}

// Decision is one knob move a controller wants applied. The engine
// applies decisions in the order returned (controllers earlier in the
// plane first), stamps each with the effective value the router
// reports back, and records it in the applied-event log.
type Decision struct {
	Knob   Knob
	Sender topo.NodeID // meaningful for KnobSenderThreshold only
	Value  float64
}

// Controller is the control-plane contract: observe one window's
// metrics, answer with the knob moves to apply. Observe runs on the
// engine's event loop — implementations must be deterministic (no
// time, no randomness, no map iteration) and must not block.
type Controller interface {
	// Observe ingests one window's metrics and returns the decisions
	// to apply, in application order. Returning nil means "no change".
	Observe(w Metrics) []Decision
}

// ArrivalObserver is the optional streaming hook: controllers that
// estimate from the arrival stream (threshold policies) implement it
// and are fed every first-attempt arrival in event order.
type ArrivalObserver interface {
	ObserveArrival(sender topo.NodeID, amount float64)
}

// Plane is an ordered set of controllers driven as one unit: arrivals
// fan out to every ArrivalObserver, and each window's Observe pass
// concatenates the controllers' decisions in plane order. The zero
// value is an empty, inert plane.
type Plane struct {
	controllers []Controller
	observers   []ArrivalObserver
}

// NewPlane returns a plane driving the given controllers in order.
func NewPlane(cs ...Controller) *Plane {
	p := &Plane{controllers: cs}
	for _, c := range cs {
		if o, ok := c.(ArrivalObserver); ok {
			p.observers = append(p.observers, o)
		}
	}
	return p
}

// ObserveArrival fans one first-attempt arrival to every controller
// that estimates from the arrival stream.
func (p *Plane) ObserveArrival(sender topo.NodeID, amount float64) {
	for _, o := range p.observers {
		o.ObserveArrival(sender, amount)
	}
}

// Observe runs one window's observe/decide pass and returns the
// concatenated decisions in plane order.
func (p *Plane) Observe(w Metrics) []Decision {
	var ds []Decision
	for _, c := range p.controllers {
		ds = append(ds, c.Observe(w)...)
	}
	return ds
}
