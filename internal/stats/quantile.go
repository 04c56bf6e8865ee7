package stats

import (
	"fmt"
	"math"
	"sort"
)

// QuantileEstimator tracks a single quantile of an unbounded stream in
// O(1) memory using the P² algorithm (Jain & Chlamtac, 1985): five
// markers — the stream minimum, the target quantile, the quantile's
// midpoints towards either extreme, and the stream maximum — are
// nudged towards their desired rank positions on every observation,
// with piecewise-parabolic height interpolation. The estimate is a
// pure function of the observation sequence (no randomness, no maps),
// so identically-ordered streams produce bit-identical estimates — the
// property the dynamic engine's determinism contract relies on.
//
// It is the streaming counterpart of Percentile for workloads too long
// (or too lazy) to materialise: the adaptive elephant threshold feeds
// every arrival amount through one of these instead of buffering the
// whole payment history.
//
// A QuantileEstimator is not safe for concurrent use; callers
// serialise Add and Quantile (the dynamic engine does so on its event
// loop).
type QuantileEstimator struct {
	p     float64    // target quantile in (0, 1)
	count int        // observations seen
	q     [5]float64 // marker heights
	n     [5]float64 // actual marker positions (1-based ranks)
	want  [5]float64 // desired marker positions
	dwant [5]float64 // desired-position increment per observation
}

// NewQuantileEstimator returns an estimator for the p-quantile,
// 0 < p < 1 (e.g. 0.9 for the paper's 90%-mice elephant threshold).
// Out-of-range p panics: the quantile is a structural parameter, not
// data, so a bad value is a caller bug.
func NewQuantileEstimator(p float64) *QuantileEstimator {
	if !(p > 0 && p < 1) {
		panic(fmt.Sprintf("stats: quantile must be in (0, 1), got %v", p))
	}
	e := &QuantileEstimator{p: p}
	e.Reset()
	return e
}

// P returns the target quantile the estimator tracks.
func (e *QuantileEstimator) P() float64 { return e.p }

// Count returns the number of observations added since the last Reset.
func (e *QuantileEstimator) Count() int { return e.count }

// Reset discards all observations, keeping the target quantile — the
// rolling re-calibration hook: the adaptive threshold resets its
// estimator after every swap so the next estimate tracks the current
// demand regime, not the whole history.
func (e *QuantileEstimator) Reset() {
	p := e.p
	*e = QuantileEstimator{
		p:     p,
		want:  [5]float64{1, 1 + 2*p, 1 + 4*p, 3 + 2*p, 5},
		dwant: [5]float64{0, p / 2, p, (1 + p) / 2, 1},
	}
}

// Add feeds one observation into the estimator.
func (e *QuantileEstimator) Add(v float64) {
	if e.count < 5 {
		// Initialisation phase: the first five observations become the
		// markers themselves (kept sorted in q).
		e.q[e.count] = v
		e.count++
		sort.Float64s(e.q[:e.count])
		if e.count == 5 {
			for i := range e.n {
				e.n[i] = float64(i + 1)
			}
		}
		return
	}
	e.count++

	// Locate the cell the observation falls into, extending the extreme
	// markers when it lies outside them.
	var k int
	switch {
	case v < e.q[0]:
		e.q[0] = v
		k = 0
	case v >= e.q[4]:
		e.q[4] = v
		k = 3
	default:
		for k = 0; k < 3; k++ {
			if v < e.q[k+1] {
				break
			}
		}
	}

	for i := k + 1; i < 5; i++ {
		e.n[i]++
	}
	for i := range e.want {
		e.want[i] += e.dwant[i]
	}

	// Nudge the three interior markers towards their desired positions,
	// adjusting heights by the piecewise-parabolic (P²) formula, or
	// linearly when the parabola would break monotonicity.
	for i := 1; i <= 3; i++ {
		d := e.want[i] - e.n[i]
		if (d >= 1 && e.n[i+1]-e.n[i] > 1) || (d <= -1 && e.n[i-1]-e.n[i] < -1) {
			s := 1.0
			if d < 0 {
				s = -1.0
			}
			h := e.parabolic(i, s)
			if e.q[i-1] < h && h < e.q[i+1] {
				e.q[i] = h
			} else {
				e.q[i] = e.linear(i, s)
			}
			e.n[i] += s
		}
	}
}

// parabolic is the P² piecewise-parabolic height prediction for moving
// marker i by d (±1).
func (e *QuantileEstimator) parabolic(i int, d float64) float64 {
	return e.q[i] + d/(e.n[i+1]-e.n[i-1])*
		((e.n[i]-e.n[i-1]+d)*(e.q[i+1]-e.q[i])/(e.n[i+1]-e.n[i])+
			(e.n[i+1]-e.n[i]-d)*(e.q[i]-e.q[i-1])/(e.n[i]-e.n[i-1]))
}

// linear is the fallback height prediction along the neighbouring
// marker.
func (e *QuantileEstimator) linear(i int, d float64) float64 {
	j := i + int(d)
	return e.q[i] + d*(e.q[j]-e.q[i])/(e.n[j]-e.n[i])
}

// Quantile returns the current estimate of the p-quantile. With fewer
// than five observations it is the exact interpolated percentile of
// what has been seen (matching Percentile); with none it is 0.
func (e *QuantileEstimator) Quantile() float64 {
	if e.count == 0 {
		return 0
	}
	if e.count < 5 {
		buf := append([]float64(nil), e.q[:e.count]...)
		return percentileSorted(buf, e.p*100)
	}
	return e.q[2]
}

// StdErr returns the approximate standard error of the current
// quantile estimate, via the asymptotic sample-quantile variance
// formula SE ≈ sqrt(p(1−p)/n) / f̂(q): the binomial rank noise divided
// by the local density of the distribution at the quantile. The
// density is estimated from the P² markers themselves — the fraction
// of observations lying between the two markers flanking the quantile,
// divided by their height span — so the error estimate costs no extra
// state and stays a pure function of the observation sequence.
//
// With fewer than five observations (the P² markers are not yet
// placed) it returns +Inf: the estimate carries no usable confidence,
// and a caller gating decisions on the error will correctly hold off.
// A degenerate stream whose flanking markers coincide (all mass at one
// point) returns 0: the quantile is exact.
func (e *QuantileEstimator) StdErr() float64 {
	if e.count < 5 {
		return math.Inf(1)
	}
	spread := e.q[3] - e.q[1]
	if spread <= 0 {
		return 0
	}
	frac := (e.n[3] - e.n[1]) / float64(e.count)
	if frac <= 0 {
		return math.Inf(1)
	}
	density := frac / spread
	return math.Sqrt(e.p*(1-e.p)/float64(e.count)) / density
}
