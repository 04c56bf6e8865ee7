// Package stats provides small numeric helpers shared across the Flash
// reproduction: percentile and CDF computation, min/mean/max summaries,
// and deterministic random-number-generator derivation.
//
// Everything here is intentionally dependency-free; the simulator, trace
// generator and benchmark harness all build on it.
package stats

import (
	"math"
	"math/rand"
	"sort"
)

// Summary holds the min/mean/max of a series plus its count and sum.
// The zero value is ready to use; call Add to accumulate observations.
type Summary struct {
	Count int
	Sum   float64
	Min   float64
	Max   float64
}

// Add records one observation.
func (s *Summary) Add(v float64) {
	if s.Count == 0 || v < s.Min {
		s.Min = v
	}
	if s.Count == 0 || v > s.Max {
		s.Max = v
	}
	s.Count++
	s.Sum += v
}

// Mean returns the arithmetic mean of the observations, or 0 if empty.
func (s *Summary) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / float64(s.Count)
}

// Summarize builds a Summary from a slice in one call.
func Summarize(vs []float64) Summary {
	var s Summary
	for _, v := range vs {
		s.Add(v)
	}
	return s
}

// Percentile returns the p-th percentile (0 ≤ p ≤ 100) of vs using linear
// interpolation between closest ranks. It copies and sorts its input, so
// the caller's slice is left untouched. Percentile of an empty slice is 0.
func Percentile(vs []float64, p float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	sorted := append([]float64(nil), vs...)
	sort.Float64s(sorted)
	return percentileSorted(sorted, p)
}

// percentileSorted is Percentile on an already-sorted slice.
func percentileSorted(sorted []float64, p float64) float64 {
	if len(sorted) == 1 {
		return sorted[0]
	}
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Median returns the 50th percentile of vs.
func Median(vs []float64) float64 { return Percentile(vs, 50) }

// CDF is an empirical cumulative distribution function: a sorted sample
// against which quantiles and tail shares can be queried. It is the
// building block for reproducing the paper's Figure 3 and Figure 4 plots.
type CDF struct {
	sorted []float64
	total  float64 // sum of all values, cached for TopShare
}

// NewCDF builds an empirical CDF from a sample. The input is copied.
func NewCDF(sample []float64) *CDF {
	sorted := append([]float64(nil), sample...)
	sort.Float64s(sorted)
	total := 0.0
	for _, v := range sorted {
		total += v
	}
	return &CDF{sorted: sorted, total: total}
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1) of the sample.
func (c *CDF) Quantile(q float64) float64 {
	if len(c.sorted) == 0 {
		return 0
	}
	return percentileSorted(c.sorted, q*100)
}

// TopShare returns the fraction of the total mass contributed by the
// largest frac of observations, e.g. TopShare(0.1) answers "what share of
// volume do the top 10% of payments carry?" — the paper's heavy-tail
// headline statistic.
func (c *CDF) TopShare(frac float64) float64 {
	n := len(c.sorted)
	if n == 0 || c.total == 0 {
		return 0
	}
	k := int(math.Ceil(frac * float64(n)))
	if k <= 0 {
		return 0
	}
	if k > n {
		k = n
	}
	tail := 0.0
	for _, v := range c.sorted[n-k:] {
		tail += v
	}
	return tail / c.total
}

// Points returns up to n evenly spaced (value, cumulative-probability)
// pairs suitable for plotting the CDF.
func (c *CDF) Points(n int) [][2]float64 {
	if len(c.sorted) == 0 || n <= 0 {
		return nil
	}
	if n > len(c.sorted) {
		n = len(c.sorted)
	}
	pts := make([][2]float64, 0, n)
	for i := 0; i < n; i++ {
		idx := i * (len(c.sorted) - 1) / max(n-1, 1)
		pts = append(pts, [2]float64{c.sorted[idx], float64(idx+1) / float64(len(c.sorted))})
	}
	return pts
}

// NewRNG returns a deterministic *rand.Rand derived from a base seed and a
// stream label, so independent simulation runs draw from decorrelated but
// reproducible streams.
func NewRNG(seed int64, stream uint64) *rand.Rand {
	return rand.New(rand.NewSource(seed ^ int64(splitMix64(stream))))
}

// splitMix64 is the SplitMix64 mixing function, used to derive
// well-distributed sub-seeds from small stream indices.
func splitMix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
