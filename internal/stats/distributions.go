package stats

import (
	"math"
	"math/rand"
)

// LogNormal draws from a log-normal distribution with the given median and
// shape sigma (the standard deviation of the underlying normal). The
// Ripple/Bitcoin payment-size bodies in the paper's traces are modelled
// this way.
func LogNormal(rng *rand.Rand, median, sigma float64) float64 {
	return median * math.Exp(rng.NormFloat64()*sigma)
}

// Pareto draws from a Pareto(xm, alpha) distribution: heavy-tailed with
// minimum xm. Used for the elephant tail of the payment-size mixtures.
func Pareto(rng *rand.Rand, xm, alpha float64) float64 {
	u := rng.Float64()
	for u == 0 {
		u = rng.Float64()
	}
	return xm / math.Pow(u, 1/alpha)
}

// Zipf draws an integer in [0, n) with probability proportional to
// 1/(rank+1)^s. It is used for clustered receiver selection (a sender's
// top-5 recurring receivers dominate, per the paper's Figure 4b).
type Zipf struct {
	s   float64
	cum []float64 // cumulative unnormalised weights
}

// NewZipf precomputes the cumulative weight table for n ranks with
// exponent s. n must be ≥ 1.
func NewZipf(n int, s float64) *Zipf {
	z := &Zipf{s: s}
	z.grow(n)
	return z
}

// grow extends the table to n ranks. The running sum continues where it
// stopped, so the table for n ranks is a prefix of the table for n+1.
func (z *Zipf) grow(n int) {
	total := 0.0
	if len(z.cum) > 0 {
		total = z.cum[len(z.cum)-1]
	}
	for i := len(z.cum); i < n; i++ {
		total += 1 / math.Pow(float64(i+1), z.s)
		z.cum = append(z.cum, total)
	}
}

// Draw samples a rank in [0, n).
func (z *Zipf) Draw(rng *rand.Rand) int { return z.DrawPrefix(rng, len(z.cum)) }

// DrawPrefix samples a rank in [0, n), 1 ≤ n, exactly as
// NewZipf(n, s).Draw would — same rng consumption, same result bit for
// bit — from the first n entries of one shared table, which grows when n
// exceeds it. Callers whose n varies per draw (a sender's known
// receivers) keep one Zipf instead of building a table per draw.
func (z *Zipf) DrawPrefix(rng *rand.Rand, n int) int {
	z.grow(n)
	cum := z.cum[:n]
	target := rng.Float64() * cum[n-1]
	lo, hi := 0, n-1
	for lo < hi {
		mid := (lo + hi) / 2
		if cum[mid] < target {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
