package control

import (
	"math"

	"repro/internal/stats"
	"repro/internal/topo"
)

// RawThreshold re-calibrates the global elephant threshold to the
// arrival stream's mice-fraction quantile once per window — the policy
// the dynamic engine ran inline before the control plane existed, and
// the one the demand-drift scenario runs: a P² estimator accumulates every
// first-attempt arrival amount, and at each window boundary with at
// least MinSamples observations the current estimate is swapped in
// (and the estimator reset so the next estimate tracks the current
// regime, not the whole history). No smoothing, no confidence gate:
// whatever the window estimated becomes the threshold, which is
// faithful to drift but wobbles on heavy-tailed streams.
type RawThreshold struct {
	est        *stats.QuantileEstimator
	minSamples int
}

// NewRawThreshold returns the raw per-window policy tracking the
// miceFraction-quantile (0 < miceFraction < 1), swapping only when a
// window saw at least minSamples arrivals (≤ 0 means swap on any
// non-empty estimate).
func NewRawThreshold(miceFraction float64, minSamples int) *RawThreshold {
	return &RawThreshold{
		est:        stats.NewQuantileEstimator(miceFraction),
		minSamples: minSamples,
	}
}

// Name implements Controller.
func (c *RawThreshold) Name() string { return "raw-threshold" }

// ObserveArrival implements ArrivalObserver.
func (c *RawThreshold) ObserveArrival(_ topo.NodeID, amount float64) {
	c.est.Add(amount)
}

// Observe implements Controller: the PR-5 recalibration verbatim —
// estimate, reset, swap if changed.
func (c *RawThreshold) Observe(w Metrics) []Decision {
	if c.est.Count() < c.minSamples {
		return nil
	}
	q := c.est.Quantile()
	c.est.Reset()
	if q == w.Threshold {
		return nil
	}
	return []Decision{{Knob: KnobThreshold, Value: q}}
}

// SmoothedThresholdConfig parameterises NewSmoothedThreshold. The zero
// value is normalised to the defaults noted per field.
type SmoothedThresholdConfig struct {
	// MiceFraction is the tracked quantile (default 0.9, the paper's
	// 90%-mice split).
	MiceFraction float64
	// Alpha is the EWMA smoothing factor over per-window estimates
	// (default 0.5: the last two windows carry ~75% of the weight, so
	// smoothing lags genuine drift by about one window).
	Alpha float64
	// Confidence is the z-score of the swap gate (default 1.96, a 95%
	// interval): the smoothed value must differ from the live
	// threshold by more than Confidence standard errors of the
	// window's estimate before a swap is worth its invalidations.
	Confidence float64
	// Band is the relative dead-band (default 0.05): moves smaller
	// than Band·threshold never swap, however confident.
	Band float64
	// Snap is the regime-change detector (default 0.3): a window
	// estimate jumping more than Snap·smoothed away from the smoothed
	// value resets the EWMA to re-seed from the new regime, so genuine
	// demand shifts adapt as fast as the raw policy instead of being
	// dragged through the average.
	Snap float64
	// MinSamples gates observation: windows with fewer arrivals in the
	// estimator contribute nothing (default 20, matching the raw
	// policy's gate).
	MinSamples int
}

func (c *SmoothedThresholdConfig) normalise() {
	if c.MiceFraction == 0 {
		c.MiceFraction = 0.9
	}
	if c.Alpha == 0 {
		c.Alpha = 0.5
	}
	if c.Confidence == 0 {
		c.Confidence = 1.96
	}
	if c.Band == 0 {
		c.Band = 0.05
	}
	if c.Snap == 0 {
		c.Snap = 0.3
	}
	if c.MinSamples == 0 {
		c.MinSamples = 20
	}
}

// SmoothedThreshold is the confidence-gated successor of RawThreshold:
// each window's P² quantile estimate feeds an EWMA, and the smoothed
// value only replaces the live threshold when it clears both the
// confidence gate (the move exceeds Confidence standard errors of the
// window estimate) and the relative dead-band. On heavy-tailed streams
// the raw policy's per-window estimates wobble with tail noise and
// every wobble is a swap — each one invalidating cached routing-table
// entries; the EWMA absorbs the wobble while the Snap detector keeps
// genuine regime shifts adapting at raw speed.
type SmoothedThreshold struct {
	cfg  SmoothedThresholdConfig
	est  *stats.QuantileEstimator
	ewma *stats.EWMA
}

// NewSmoothedThreshold returns the EWMA-smoothed threshold policy.
func NewSmoothedThreshold(cfg SmoothedThresholdConfig) *SmoothedThreshold {
	cfg.normalise()
	return &SmoothedThreshold{
		cfg:  cfg,
		est:  stats.NewQuantileEstimator(cfg.MiceFraction),
		ewma: stats.NewEWMA(cfg.Alpha),
	}
}

// Name implements Controller.
func (c *SmoothedThreshold) Name() string { return "smoothed-threshold" }

// ObserveArrival implements ArrivalObserver.
func (c *SmoothedThreshold) ObserveArrival(_ topo.NodeID, amount float64) {
	c.est.Add(amount)
}

// Observe implements Controller.
func (c *SmoothedThreshold) Observe(w Metrics) []Decision {
	if c.est.Count() < c.cfg.MinSamples {
		return nil
	}
	q := c.est.Quantile()
	se := c.est.StdErr()
	c.est.Reset()

	// Regime shift: the window estimate has left the smoothed value's
	// neighbourhood entirely — re-seed rather than crawl.
	if c.ewma.Count() > 0 && math.Abs(q-c.ewma.Value()) > c.cfg.Snap*math.Abs(c.ewma.Value()) {
		c.ewma.Reset()
	}
	sm := c.ewma.Add(q)

	move := math.Abs(sm - w.Threshold)
	if move <= c.cfg.Band*math.Abs(w.Threshold) {
		return nil
	}
	if !math.IsInf(se, 1) && move <= c.cfg.Confidence*se {
		return nil
	}
	if math.IsInf(se, 1) {
		// No usable error estimate (degenerate window): hold.
		return nil
	}
	return []Decision{{Knob: KnobThreshold, Value: sm}}
}
