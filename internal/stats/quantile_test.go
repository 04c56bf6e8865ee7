package stats

import (
	"math"
	"math/rand"
	"testing"
)

// TestQuantileEstimatorSmallSampleExact pins the initialisation phase:
// below five observations the estimate is the exact interpolated
// percentile of the buffer.
func TestQuantileEstimatorSmallSampleExact(t *testing.T) {
	e := NewQuantileEstimator(0.9)
	if got := e.Quantile(); got != 0 {
		t.Errorf("empty estimator: %v, want 0", got)
	}
	vals := []float64{7, 3, 11, 5}
	for i, v := range vals {
		e.Add(v)
		want := Percentile(vals[:i+1], 90)
		if got := e.Quantile(); math.Abs(got-want) > 1e-12 {
			t.Errorf("after %d obs: estimate %v, exact %v", i+1, got, want)
		}
	}
	if e.Count() != len(vals) {
		t.Errorf("Count = %d, want %d", e.Count(), len(vals))
	}
}

// estimateVsExact feeds n draws from sample into both the estimator
// and an exact buffer and returns (estimate, exact percentile).
func estimateVsExact(p float64, n int, seed int64, sample func(*rand.Rand) float64) (float64, float64) {
	rng := rand.New(rand.NewSource(seed))
	e := NewQuantileEstimator(p)
	buf := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		v := sample(rng)
		e.Add(v)
		buf = append(buf, v)
	}
	return e.Quantile(), Percentile(buf, p*100)
}

// TestQuantileEstimatorConvergence bounds the P² error against the
// exact percentile on fixed seeds, for the distributions the simulator
// actually feeds it: uniform, exponential, and the heavy-tailed
// log-normal of the payment-size models.
func TestQuantileEstimatorConvergence(t *testing.T) {
	cases := []struct {
		name   string
		p      float64
		n      int
		seed   int64
		relTol float64
		sample func(*rand.Rand) float64
	}{
		{"uniform-p90", 0.9, 20000, 1, 0.02, func(r *rand.Rand) float64 { return r.Float64() }},
		{"uniform-p50", 0.5, 20000, 2, 0.02, func(r *rand.Rand) float64 { return r.Float64() }},
		{"exponential-p90", 0.9, 20000, 3, 0.05, func(r *rand.Rand) float64 { return r.ExpFloat64() }},
		{"lognormal-p90", 0.9, 50000, 4, 0.10, func(r *rand.Rand) float64 {
			return math.Exp(r.NormFloat64() * 1.5)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, want := estimateVsExact(tc.p, tc.n, tc.seed, tc.sample)
			if want == 0 {
				t.Fatalf("degenerate exact percentile")
			}
			if rel := math.Abs(got-want) / want; rel > tc.relTol {
				t.Errorf("estimate %v vs exact %v: relative error %.3f > %.3f",
					got, want, rel, tc.relTol)
			}
		})
	}
}

// TestQuantileEstimatorDeterministic: identical observation sequences
// produce bit-identical estimates — the determinism contract.
func TestQuantileEstimatorDeterministic(t *testing.T) {
	run := func() float64 {
		rng := rand.New(rand.NewSource(99))
		e := NewQuantileEstimator(0.9)
		for i := 0; i < 10000; i++ {
			e.Add(math.Exp(rng.NormFloat64()))
		}
		return e.Quantile()
	}
	if a, b := run(), run(); a != b {
		t.Errorf("estimates diverged across identical runs: %v vs %v", a, b)
	}
}

// TestQuantileEstimatorReset: a reset estimator forgets its history
// and tracks the new regime alone — the rolling re-calibration
// behaviour the adaptive threshold depends on.
func TestQuantileEstimatorReset(t *testing.T) {
	e := NewQuantileEstimator(0.9)
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 5000; i++ {
		e.Add(100 + rng.Float64())
	}
	e.Reset()
	if e.Count() != 0 {
		t.Fatalf("Count after Reset = %d", e.Count())
	}
	for i := 0; i < 5000; i++ {
		e.Add(rng.Float64()) // two orders of magnitude below the old regime
	}
	if got := e.Quantile(); got > 1 {
		t.Errorf("post-reset estimate %v still reflects the old regime", got)
	}
	if e.p != 0.9 {
		t.Errorf("Reset changed the target quantile: %v", e.p)
	}
}

// TestQuantileEstimatorTracksShiftedStream: after a mid-stream scale
// shift with a reset at the boundary, the estimate matches the
// post-shift distribution, not the mixture.
func TestQuantileEstimatorTracksShiftedStream(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	e := NewQuantileEstimator(0.9)
	for i := 0; i < 10000; i++ {
		e.Add(rng.Float64())
	}
	pre := e.Quantile()
	e.Reset()
	buf := make([]float64, 0, 10000)
	for i := 0; i < 10000; i++ {
		v := 0.25 * rng.Float64()
		e.Add(v)
		buf = append(buf, v)
	}
	post, exact := e.Quantile(), Percentile(buf, 90)
	if math.Abs(post-exact)/exact > 0.05 {
		t.Errorf("post-shift estimate %v vs exact %v", post, exact)
	}
	if post > pre*0.5 {
		t.Errorf("estimate %v did not follow the 4x downward shift (pre %v)", post, pre)
	}
}

// TestNewQuantileEstimatorRejectsBadP: out-of-range quantiles are
// caller bugs and panic.
func TestNewQuantileEstimatorRejectsBadP(t *testing.T) {
	for _, p := range []float64{0, 1, -0.5, 1.5, math.NaN()} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("p=%v accepted", p)
				}
			}()
			NewQuantileEstimator(p)
		}()
	}
}

// BenchmarkQuantileEstimatorAdd is the per-arrival cost every threshold
// policy pays on the dynamic engine's arrival path: one P² marker
// update, O(1) memory, zero allocations. Run it with a duration
// benchtime (the default is fine): a handful of iterations would only
// measure the five-observation initialisation phase.
func BenchmarkQuantileEstimatorAdd(b *testing.B) {
	est := NewQuantileEstimator(0.9)
	rng := rand.New(rand.NewSource(1))
	amounts := make([]float64, 4096)
	for i := range amounts {
		amounts[i] = rng.Float64() * 1000
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		est.Add(amounts[i%len(amounts)])
	}
}
