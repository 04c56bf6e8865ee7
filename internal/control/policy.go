package control

import (
	"fmt"
	"strings"
)

// Policy is the declarative control-plane spec the engine and CLIs
// consume: which policies run and the quantile they track. The zero value
// is the inert policy (no controllers, byte-identical to a run without
// a control plane). Policy is a plain value — Controllers builds the
// stateful controller set fresh per run, so one spec can parameterise
// many runs without sharing estimator state.
type Policy struct {
	// Threshold selects the global threshold policy: "" (off), "raw"
	// (the per-window swap) or "ewma" (confidence-gated smoothing).
	Threshold string
	// PerSender enables the sharded per-sender threshold policy.
	PerSender bool
	// ProbeWidth enables the adaptive probe-width policy.
	ProbeWidth bool

	// MiceFraction is the quantile every threshold policy tracks: 0
	// means 0.9, anything else must lie in (0, 1).
	MiceFraction float64
}

// Enabled reports whether the policy runs any controller at all.
func (p Policy) Enabled() bool {
	return p.Threshold != "" || p.PerSender || p.ProbeWidth
}

// Spec renders the canonical comma-separated policy spec ("" when
// inert) — the inverse of ParsePolicy, used in run headers so a
// rendered run names the policies that shaped it.
func (p Policy) Spec() string {
	var parts []string
	if p.Threshold != "" {
		parts = append(parts, p.Threshold)
	}
	if p.PerSender {
		parts = append(parts, "sender")
	}
	if p.ProbeWidth {
		parts = append(parts, "width")
	}
	return strings.Join(parts, ",")
}

// Controllers builds the policy's controller set, in the fixed plane
// order: global threshold, per-sender thresholds, probe width. Every
// threshold policy tracks the MiceFraction-quantile (0 resolves to 0.9
// here, once); every other tuning value is a package constant. It
// errors on an unknown Threshold selector and on a MiceFraction outside
// (0, 1).
func (p Policy) Controllers() ([]Controller, error) {
	frac := p.MiceFraction
	if frac == 0 {
		frac = 0.9
	}
	if !(frac > 0 && frac < 1) {
		return nil, fmt.Errorf("control: mice fraction must lie in (0, 1), got %v", p.MiceFraction)
	}
	var cs []Controller
	switch p.Threshold {
	case "":
	case "raw":
		cs = append(cs, NewRawThreshold(frac))
	case "ewma":
		cs = append(cs, NewSmoothedThreshold(frac))
	default:
		return nil, fmt.Errorf("control: unknown threshold policy %q (want \"raw\" or \"ewma\")", p.Threshold)
	}
	if p.PerSender {
		cs = append(cs, NewPerSenderThreshold(frac))
	}
	if p.ProbeWidth {
		cs = append(cs, NewProbeWidth())
	}
	return cs, nil
}

// ParsePolicy parses a comma-separated policy spec — the flashsim
// -control flag syntax. Accepted items: "raw", "ewma" (global
// threshold policies, mutually exclusive), "sender", "width". "off"
// alone (or the empty string) is the inert policy. A spec selects
// policies only: MiceFraction stays 0 (the 0.9 default) and every
// other tuning value is a package constant.
func ParsePolicy(spec string) (Policy, error) {
	var p Policy
	spec = strings.TrimSpace(spec)
	if spec == "" || spec == "off" {
		return p, nil
	}
	for _, item := range strings.Split(spec, ",") {
		switch strings.TrimSpace(item) {
		case "raw", "ewma":
			if p.Threshold != "" {
				return Policy{}, fmt.Errorf("control: policy spec %q selects two global threshold policies", spec)
			}
			p.Threshold = strings.TrimSpace(item)
		case "sender":
			p.PerSender = true
		case "width":
			p.ProbeWidth = true
		case "":
			return Policy{}, fmt.Errorf("control: empty item in policy spec %q", spec)
		default:
			return Policy{}, fmt.Errorf("control: unknown policy %q (want raw, ewma, sender or width)", strings.TrimSpace(item))
		}
	}
	return p, nil
}
