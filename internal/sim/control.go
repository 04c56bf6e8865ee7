package sim

import (
	"repro/internal/control"
	"repro/internal/core"
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
// the current observation window's elephant counters (the Metrics
// fields a controller reads; snapshot fills in the live knob values),
// and the per-knob decision rollups. nil when no controller is engaged.
type controlState struct {
	plane  *control.Plane
	window control.Metrics

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

// completedPayment accumulates one settled payment into the current
// observation window if it is an elephant against the threshold in
// effect for its sender at completion.
func (c *controlState) completedPayment(amount, effThreshold float64, t routeOutcome) {
	if amount <= effThreshold {
		return
	}
	c.window.Elephants++
	c.window.ElephantProbeOps += t.probeOps
	if t.delivered {
		c.window.ElephantSuccesses++
		c.window.ElephantPathsUsed += t.paths
	}
}

// snapshot returns the window's Metrics stamped with the live knob
// values, then resets the accumulator for the next window.
func (c *controlState) snapshot(threshold float64, probeWidth int) control.Metrics {
	m := c.window
	m.Threshold, m.ProbeWidth = threshold, probeWidth
	c.window = control.Metrics{}
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
