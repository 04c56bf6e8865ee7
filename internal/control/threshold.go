package control

import (
	"math"

	"repro/internal/stats"
	"repro/internal/topo"
)

// Threshold-policy tuning: minSamples gates all three threshold
// policies, the rest tune SmoothedThreshold.
const (
	// minSamples is the observation gate: a window whose estimator saw
	// fewer arrivals (per sender, for the per-sender policy) holds
	// instead of swapping and keeps its samples for the next window.
	minSamples = 20
	// alpha is the EWMA smoothing factor over per-window estimates:
	// the last two windows carry ~75% of the weight, so smoothing lags
	// genuine drift by about one window.
	alpha = 0.5
	// confidence is the z-score of the swap gate (a 95% interval): the
	// smoothed value must differ from the live threshold by more than
	// confidence standard errors of the window's estimate before a
	// swap is worth its invalidations.
	confidence = 1.96
	// band is the relative dead-band: moves smaller than
	// band·threshold never swap, however confident.
	band = 0.05
	// snap is the regime-change detector: a window estimate more than
	// snap·smoothed away from the smoothed value re-seeds the EWMA, so
	// genuine demand shifts adapt as fast as the raw policy instead of
	// being dragged through the average.
	snap = 0.3
)

// RawThreshold re-calibrates the global elephant threshold to the
// arrival stream's mice-fraction quantile once per window — the policy
// the dynamic engine ran inline before the control plane existed, and
// the one the demand-drift scenario runs: a P² estimator accumulates every
// first-attempt arrival amount, and at each window boundary with at
// least minSamples observations the current estimate is swapped in
// (and the estimator reset so the next estimate tracks the current
// regime, not the whole history). No smoothing, no confidence gate:
// whatever the window estimated becomes the threshold, which is
// faithful to drift but wobbles on heavy-tailed streams.
type RawThreshold struct {
	est *stats.QuantileEstimator
}

// NewRawThreshold returns the raw per-window policy tracking the
// miceFraction-quantile (0 < miceFraction < 1).
func NewRawThreshold(miceFraction float64) *RawThreshold {
	return &RawThreshold{est: stats.NewQuantileEstimator(miceFraction)}
}

// ObserveArrival implements ArrivalObserver.
func (c *RawThreshold) ObserveArrival(_ topo.NodeID, amount float64) {
	c.est.Add(amount)
}

// Observe implements Controller: the PR-5 recalibration verbatim —
// estimate, reset, swap if changed.
func (c *RawThreshold) Observe(w Metrics) []Decision {
	if c.est.Count() < minSamples {
		return nil
	}
	q := c.est.Quantile()
	c.est.Reset()
	if q == w.Threshold {
		return nil
	}
	return []Decision{{Knob: KnobThreshold, Value: q}}
}

// SmoothedThreshold is the confidence-gated successor of RawThreshold:
// each window's P² quantile estimate feeds an EWMA, and the smoothed
// value only replaces the live threshold when it clears both the
// confidence gate (the move exceeds confidence standard errors of the
// window estimate) and the relative dead-band. On heavy-tailed streams
// the raw policy's per-window estimates wobble with tail noise and
// every wobble is a swap — each one invalidating cached routing-table
// entries; the EWMA absorbs the wobble while the snap detector keeps
// genuine regime shifts adapting at raw speed.
type SmoothedThreshold struct {
	est  *stats.QuantileEstimator
	ewma *stats.EWMA
}

// NewSmoothedThreshold returns the EWMA-smoothed threshold policy
// tracking the miceFraction-quantile (0 < miceFraction < 1).
func NewSmoothedThreshold(miceFraction float64) *SmoothedThreshold {
	return &SmoothedThreshold{
		est:  stats.NewQuantileEstimator(miceFraction),
		ewma: stats.NewEWMA(alpha),
	}
}

// ObserveArrival implements ArrivalObserver.
func (c *SmoothedThreshold) ObserveArrival(_ topo.NodeID, amount float64) {
	c.est.Add(amount)
}

// Observe implements Controller.
func (c *SmoothedThreshold) Observe(w Metrics) []Decision {
	if c.est.Count() < minSamples {
		return nil
	}
	q := c.est.Quantile()
	se := c.est.StdErr()
	c.est.Reset()

	// Regime shift: the window estimate has left the smoothed value's
	// neighbourhood entirely — re-seed rather than crawl.
	if c.ewma.Count() > 0 && math.Abs(q-c.ewma.Value()) > snap*math.Abs(c.ewma.Value()) {
		c.ewma.Reset()
	}
	sm := c.ewma.Add(q)

	move := math.Abs(sm - w.Threshold)
	if move <= band*math.Abs(w.Threshold) {
		return nil
	}
	// A degenerate window has no usable error estimate: hold.
	if math.IsInf(se, 1) || move <= confidence*se {
		return nil
	}
	return []Decision{{Knob: KnobThreshold, Value: sm}}
}
