package sim

import (
	"math"

	"repro/internal/stats"
)

// LatencyStats summarises payment completion latencies (virtual
// completion instant − first-attempt arrival, in seconds): count, sum,
// min, max and mean exactly (the embedded stats.Summary), and
// p50/p95/p99 from a log-bucketed histogram of integer counts.
//
// Buckets split every octave of [2^-32, 2^32) seconds into 2^7 equal
// slices; a value's bucket is its float exponent and top 7 mantissa
// bits, read off its bits. A percentile is nearest-rank — the bucket
// holding the ⌈p·n⌉-th smallest observation — reported as that
// bucket's midpoint clamped to [Min, Max], so it lies within a relative
// 2^-8 (0.39%) of the exact sample quantile, and p50 ≤ p95 ≤ p99 always
// hold. A quantile that falls below 2^-32 s reads Min, one at or above
// 2^32 s reads Max. Counts cover only the bucket range seen so far, so
// the zero value holds nothing and renders as "no observations".
//
// The engine observes each delivered payment once, into its window;
// the run's histogram is the exact bucket-wise sum of its windows'
// (sumWindows), while its Summary is added per completion.
type LatencyStats struct {
	stats.Summary

	lo     int      // key of counts[0]
	counts []uint64 // counts[i]: observations in bucket lo+i
}

// The histogram's key space: latUnder for values below 2^-32 (zero
// included), 1 + the slice index within [2^-32, 2^32), and latOver at
// or above 2^32.
const (
	latSubBits = 7
	latShift   = 52 - latSubBits
	latMinExp  = -32
	latOctaves = 64
	latKeyBase = (1023 + latMinExp) << latSubBits // bits>>latShift of 2^latMinExp
	latUnder   = 0
	latOver    = latOctaves<<latSubBits + 1
	// latFirstRange is the key range a histogram's first observation
	// allocates around itself: eight octaves.
	latFirstRange = 8 << latSubBits
)

// latencyKey returns v's bucket key.
func latencyKey(v float64) int {
	switch {
	case !(v >= 0x1p-32):
		return latUnder
	case v >= 0x1p32:
		return latOver
	}
	return int(math.Float64bits(v)>>latShift) - latKeyBase + 1
}

// latencyValue returns the value bucket k reports before clamping: its
// midpoint, 0 for latUnder and +Inf for latOver.
func latencyValue(k int) float64 {
	switch k {
	case latUnder:
		return 0
	case latOver:
		return math.Inf(1)
	}
	// Floats are evenly spaced within an octave, so the midpoint is the
	// bucket's lower edge with the next mantissa bit set.
	return math.Float64frombits(uint64(k-1+latKeyBase)<<latShift | 1<<(latShift-1))
}

// Observe feeds one completion latency (seconds). Inside the bucket
// range already seen it allocates nothing.
func (l *LatencyStats) Observe(v float64) {
	l.Summary.Add(v)
	k := latencyKey(v)
	i := k - l.lo
	if uint(i) >= uint(len(l.counts)) {
		l.grow(k)
		i = k - l.lo
	}
	l.counts[i]++
}

// grow widens the counted range to take key k. The first key gets
// latFirstRange buckets around it; every later widening at least
// doubles the range on k's side, so a histogram grows a logarithmic
// number of times.
func (l *LatencyStats) grow(k int) {
	lo, hi := k-latFirstRange/2, k+latFirstRange/2
	if n := len(l.counts); n > 0 {
		lo, hi = l.lo, l.lo+n
		if k < lo {
			lo = min(k, hi-2*n)
		} else {
			hi = max(k+1, lo+2*n)
		}
	}
	lo, hi = max(lo, latUnder), min(hi, latOver+1)
	counts := make([]uint64, hi-lo)
	if len(l.counts) > 0 {
		copy(counts[l.lo-lo:], l.counts)
	}
	l.lo, l.counts = lo, counts
}

// sumWindows sets l's histogram to the bucket-wise sum of the windows'
// histograms, in one allocation spanning l's [Min, Max]. l's Summary
// must already cover every value the windows observed.
func (l *LatencyStats) sumWindows(ws []Window) {
	if l.Count == 0 {
		return
	}
	l.lo = latencyKey(l.Min)
	l.counts = make([]uint64, latencyKey(l.Max)+1-l.lo)
	for i := range ws {
		w := &ws[i].Latency
		for j, c := range w.counts {
			if c != 0 {
				l.counts[w.lo+j-l.lo] += c
			}
		}
	}
}

// quantile returns the nearest-rank pct-th percentile, 0 when empty.
func (l *LatencyStats) quantile(pct int) float64 {
	if l.Count == 0 {
		return 0
	}
	rank := uint64((pct*l.Count + 99) / 100) // ⌈pct·n/100⌉
	var seen uint64
	for i, c := range l.counts {
		if seen += c; seen >= rank {
			return min(max(latencyValue(l.lo+i), l.Min), l.Max)
		}
	}
	return l.Max
}

// P50 returns the median completion latency, 0 when empty.
func (l *LatencyStats) P50() float64 { return l.quantile(50) }

// P95 returns the 95th-percentile completion latency, 0 when empty.
func (l *LatencyStats) P95() float64 { return l.quantile(95) }

// P99 returns the 99th-percentile completion latency, 0 when empty.
func (l *LatencyStats) P99() float64 { return l.quantile(99) }
