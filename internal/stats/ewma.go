package stats

import "fmt"

// EWMA is an exponentially weighted moving average: each observation
// pulls the running value towards itself by the smoothing factor alpha
// (v ← α·x + (1−α)·v), so recent observations dominate with an
// effective memory of ~1/α observations. The first observation seeds
// the value directly — no zero-bias warm-up. Like QuantileEstimator it
// is a pure function of the observation sequence (no randomness, no
// maps), which is what lets the control plane's smoothed-threshold
// policy stay deterministic.
//
// An EWMA is not safe for concurrent use; callers serialise Add and
// Value (the control plane does so on the engine's event loop).
type EWMA struct {
	alpha float64
	value float64
	count int
}

// NewEWMA returns an average with smoothing factor alpha in (0, 1].
// Out-of-range alpha panics: the factor is a structural parameter, not
// data, so a bad value is a caller bug (mirroring NewQuantileEstimator).
func NewEWMA(alpha float64) *EWMA {
	if !(alpha > 0 && alpha <= 1) {
		panic(fmt.Sprintf("stats: EWMA alpha must be in (0, 1], got %v", alpha))
	}
	return &EWMA{alpha: alpha}
}

// Count returns the number of observations added since the last Reset.
func (e *EWMA) Count() int { return e.count }

// Value returns the current smoothed value (0 before any observation).
func (e *EWMA) Value() float64 { return e.value }

// Add feeds one observation and returns the updated smoothed value.
func (e *EWMA) Add(x float64) float64 {
	if e.count == 0 {
		e.value = x
	} else {
		e.value = e.alpha*x + (1-e.alpha)*e.value
	}
	e.count++
	return e.value
}

// Reset discards the history, keeping the smoothing factor — the
// regime-change hook: when a shift detector decides the stream has
// jumped to a new regime, smoothing towards it over many windows would
// only prolong the misclassification, so the average re-seeds from the
// next observation instead.
func (e *EWMA) Reset() {
	e.value = 0
	e.count = 0
}
