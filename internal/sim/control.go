package sim

import (
	"repro/internal/control"
	"repro/internal/core"
	"repro/internal/topo"
)

// This file is the dynamic engine's side of the control plane: the
// per-window accumulator that feeds control.Metrics to the
// controllers, the decision application switch, and the result-facing
// per-knob status. The contract with internal/control is strict — the
// engine observes, controllers decide, the engine applies and logs —
// so everything stateful about *applying* decisions lives here, and
// everything stateful about *making* them lives in the controllers.

// ControlKnobStatus is one knob's decision rollup in a DynamicResult:
// how many control decisions moved it and the last effective value
// applied. Rendered in the run footer and the JSON report so telemetry
// consumers can correlate decisions with window metrics.
type ControlKnobStatus struct {
	Knob      string  `json:"knob"`
	Decisions int     `json:"decisions"`
	Last      float64 `json:"last"`
}

// controlState carries the engine's control-plane runtime: the plane,
// the current observation window's accumulator, and the per-knob
// decision rollups. nil when no controller is engaged.
type controlState struct {
	plane *control.Plane

	index int     // completed observe passes
	start float64 // current observation window's start

	// Accumulators over the current observation window.
	arrivals          int
	payments          int
	successes         int
	elephants         int
	elephantSucc      int
	mice              int
	miceSucc          int
	elephantProbeOps  int
	elephantPathsUsed int
	probeMsgs         int64

	decisions        int // applied decisions, all knobs
	thresholdUpdates int // decisions that moved the global threshold
	status           [control.NumKnobs]ControlKnobStatus
}

// newControlState builds the engine's control runtime for a policy
// (nil runs none) plus any test-hook controllers. Returns nil when
// nothing is engaged (no controllers, or a router without tunable
// knobs).
func newControlState(policy *control.Policy, hook []control.Controller, fl *core.Flash) (*controlState, error) {
	if fl == nil {
		return nil, nil
	}
	var cs []control.Controller
	if policy != nil {
		var err error
		if cs, err = policy.Controllers(); err != nil {
			return nil, err
		}
	}
	cs = append(cs, hook...)
	if len(cs) == 0 {
		return nil, nil
	}
	return &controlState{plane: control.NewPlane(cs...)}, nil
}

// apply carries one decision to the router and rolls up the effective
// value the router reports back. It reports false, and counts nothing,
// for a decision that changes nothing: a threshold equal to the
// current one, an unknown knob.
func (c *controlState) apply(d control.Decision, fl *core.Flash) (float64, bool) {
	eff := d.Value
	switch d.Knob {
	case control.KnobThreshold:
		if d.Value == fl.Threshold() {
			return 0, false
		}
		fl.SetThreshold(d.Value)
		c.thresholdUpdates++
	case control.KnobSenderThreshold:
		fl.SetSenderThreshold(d.Sender, d.Value)
	case control.KnobProbeWidth:
		eff = float64(fl.SetProbeWorkers(int(d.Value)))
	default:
		return 0, false
	}
	c.decisions++
	st := &c.status[d.Knob]
	st.Knob, st.Decisions, st.Last = d.Knob.String(), st.Decisions+1, eff
	return eff, true
}

// arrival feeds one first-attempt arrival to the plane's estimators.
func (c *controlState) arrival(sender topo.NodeID, amount float64) {
	c.arrivals++
	c.plane.ObserveArrival(sender, amount)
}

// completedPayment accumulates one settled payment into the current
// observation window, classified against the threshold in effect for
// its sender at completion.
func (c *controlState) completedPayment(amount, effThreshold float64, t routeOutcome) {
	c.payments++
	if t.delivered {
		c.successes++
	}
	c.probeMsgs += t.probeMsgs
	if amount > effThreshold {
		c.elephants++
		c.elephantProbeOps += t.probeOps
		if t.delivered {
			c.elephantSucc++
			c.elephantPathsUsed += t.paths
		}
	} else {
		c.mice++
		if t.delivered {
			c.miceSucc++
		}
	}
}

// snapshot assembles the control.Metrics for an observe pass ending at
// t, then resets the accumulator for the next window.
func (c *controlState) snapshot(t, threshold float64, probeWidth int) control.Metrics {
	m := control.Metrics{
		Index:             c.index,
		Start:             c.start,
		End:               t,
		Arrivals:          c.arrivals,
		Payments:          c.payments,
		Successes:         c.successes,
		Elephants:         c.elephants,
		ElephantSuccesses: c.elephantSucc,
		Mice:              c.mice,
		MiceSuccesses:     c.miceSucc,
		ElephantProbeOps:  c.elephantProbeOps,
		ElephantPathsUsed: c.elephantPathsUsed,
		ProbeMessages:     int(c.probeMsgs),
		Threshold:         threshold,
		ProbeWidth:        probeWidth,
	}
	c.index++
	c.start = t
	c.arrivals, c.payments, c.successes = 0, 0, 0
	c.elephants, c.elephantSucc, c.mice, c.miceSucc = 0, 0, 0, 0
	c.elephantProbeOps, c.elephantPathsUsed, c.probeMsgs = 0, 0, 0
	return m
}

// knobStatus returns the per-knob rollups for knobs that decided at
// least once, in knob-code order.
func (c *controlState) knobStatus() []ControlKnobStatus {
	var out []ControlKnobStatus
	for _, st := range c.status {
		if st.Decisions > 0 {
			out = append(out, st)
		}
	}
	return out
}
