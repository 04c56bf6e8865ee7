package sim

import "repro/internal/stats"

// LatencyStats is a streaming summary of payment completion latencies
// (virtual completion instant − first-attempt arrival, in seconds):
// count, sum, min, max and mean exactly (the embedded stats.Summary),
// and p50/p95/p99 via the P² streaming quantile estimator
// (stats.QuantileEstimator) — O(1) memory per window, deterministic
// for a deterministic observation order, which the engine guarantees.
//
// The zero value is ready to use and renders as "no observations";
// estimators are allocated lazily on the first Observe so
// latency-free runs never pay for them.
type LatencyStats struct {
	stats.Summary

	p50, p95, p99 *stats.QuantileEstimator
}

// Observe feeds one completion latency (seconds).
func (l *LatencyStats) Observe(v float64) {
	if l.p50 == nil {
		l.p50 = stats.NewQuantileEstimator(0.50)
		l.p95 = stats.NewQuantileEstimator(0.95)
		l.p99 = stats.NewQuantileEstimator(0.99)
	}
	l.Summary.Add(v)
	l.p50.Add(v)
	l.p95.Add(v)
	l.p99.Add(v)
}

// P50 returns the median completion latency estimate, 0 when empty.
func (l *LatencyStats) P50() float64 { return quantileOrZero(l.p50) }

// P95 returns the 95th-percentile completion latency estimate, 0 when
// empty.
func (l *LatencyStats) P95() float64 { return quantileOrZero(l.p95) }

// P99 returns the 99th-percentile completion latency estimate, 0 when
// empty.
func (l *LatencyStats) P99() float64 { return quantileOrZero(l.p99) }

func quantileOrZero(q *stats.QuantileEstimator) float64 {
	if q == nil {
		return 0
	}
	return q.Quantile()
}
