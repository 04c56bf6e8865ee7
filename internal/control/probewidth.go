package control

// The probe-width policy's clamps and gate.
const (
	// minWidth and maxWidth clamp the controller's moves. The router
	// additionally clamps to [1, K].
	minWidth, maxWidth = 1, 8
	// minElephants gates observation: windows completing fewer
	// elephants say nothing about the probe economy.
	minElephants = 5
)

// ProbeWidth adapts the speculative probe width of elephant
// routing to the observed probe economy — the search-friction tradeoff
// made adjustable: wider speculation collapses probe rounds (and with
// virtual latency on, elephant delay), but every widening also probes
// more candidates whose knowledge may go unused, costing messages.
//
// The signals, per completed-elephant window averages:
//
//   - Widen (×2) when probe operations per elephant exceed the current
//     width: each speculation round probes about `width` candidates, so
//     more than one round's worth of probes per payment means round
//     one under-filled the demand and a wider round would have
//     finished sooner.
//   - Narrow (÷2) when paths actually carrying flow per delivered
//     elephant fall below half the width: each round probes candidates
//     the split never uses, so speculation is buying messages, not
//     fill.
//
// The two gates are deliberately separated by a factor-of-two dead
// zone (avg paths in [width/2, width] holds) so the controller cannot
// oscillate between the signals on a steady workload. It is stateless
// across windows: every decision is a pure function of the window's
// metrics and the live width.
type ProbeWidth struct{}

// NewProbeWidth returns the adaptive probe-width policy.
func NewProbeWidth() *ProbeWidth { return &ProbeWidth{} }

// Observe implements Controller.
func (c *ProbeWidth) Observe(w Metrics) []Decision {
	if w.Elephants < minElephants || w.ProbeWidth < 1 {
		return nil
	}
	width := w.ProbeWidth
	next := width
	avgOps := float64(w.ElephantProbeOps) / float64(w.Elephants)
	switch {
	case avgOps > float64(width):
		next = width * 2
	case w.ElephantSuccesses > 0:
		avgPaths := float64(w.ElephantPathsUsed) / float64(w.ElephantSuccesses)
		if avgPaths < float64(width)/2 {
			next = width / 2
		}
	}
	next = min(max(next, minWidth), maxWidth)
	if next == width {
		return nil
	}
	return []Decision{{Knob: KnobProbeWidth, Value: float64(next)}}
}
