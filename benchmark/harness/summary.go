package harness

import (
	"sort"

	"repro/internal/stats"
)

// Quartiles returns the three cut points Python's
// statistics.quantiles(vs, n=4) gives (the exclusive method), so a
// spread computed here is the spread the acceptance check computes.
// Fewer than two values have no quartiles: all three are the median.
func Quartiles(vs []float64) (q1, q2, q3 float64) {
	n := len(vs)
	if n < 2 {
		m := stats.Median(vs)
		return m, m, m
	}
	sorted := append([]float64(nil), vs...)
	sort.Float64s(sorted)
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (sorted[j-1]*(4-delta) + sorted[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// RelSpread is the distance between the first and third quartile as a
// share of the median — the run-to-run spread every bound is judged
// against.
func RelSpread(vs []float64) float64 {
	q1, q2, q3 := Quartiles(vs)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / q2
}
