package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSummaryBasics(t *testing.T) {
	var s Summary
	if s.Mean() != 0 {
		t.Fatalf("empty mean = %v, want 0", s.Mean())
	}
	for _, v := range []float64{3, 1, 4, 1, 5} {
		s.Add(v)
	}
	if s.Count != 5 {
		t.Errorf("Count = %d, want 5", s.Count)
	}
	if s.Min != 1 || s.Max != 5 {
		t.Errorf("Min/Max = %v/%v, want 1/5", s.Min, s.Max)
	}
	if got, want := s.Mean(), 14.0/5; math.Abs(got-want) > 1e-12 {
		t.Errorf("Mean = %v, want %v", got, want)
	}
}

func TestSummaryNegativeValues(t *testing.T) {
	s := Summarize([]float64{-2, -8, -5})
	if s.Min != -8 || s.Max != -2 {
		t.Errorf("Min/Max = %v/%v, want -8/-2", s.Min, s.Max)
	}
}

func TestPercentile(t *testing.T) {
	vs := []float64{10, 20, 30, 40, 50}
	cases := []struct {
		p, want float64
	}{
		{0, 10}, {100, 50}, {50, 30}, {25, 20}, {75, 40}, {10, 14},
	}
	for _, c := range cases {
		if got := Percentile(vs, c.p); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestPercentileEdgeCases(t *testing.T) {
	if got := Percentile(nil, 50); got != 0 {
		t.Errorf("Percentile(nil) = %v, want 0", got)
	}
	if got := Percentile([]float64{7}, 99); got != 7 {
		t.Errorf("Percentile single = %v, want 7", got)
	}
	// Input must not be mutated.
	vs := []float64{3, 1, 2}
	Percentile(vs, 50)
	if vs[0] != 3 || vs[1] != 1 || vs[2] != 2 {
		t.Errorf("Percentile mutated input: %v", vs)
	}
}

func TestMedian(t *testing.T) {
	if got := Median([]float64{5, 1, 9}); got != 5 {
		t.Errorf("Median = %v, want 5", got)
	}
}

func TestCDFQuantile(t *testing.T) {
	c := NewCDF([]float64{10, 20, 30, 40, 50})
	if got := c.Quantile(0.5); got != 30 {
		t.Errorf("Quantile(0.5) = %v, want 30", got)
	}
	if got := c.Quantile(0); got != 10 {
		t.Errorf("Quantile(0) = %v, want 10", got)
	}
	if got := c.Quantile(1); got != 50 {
		t.Errorf("Quantile(1) = %v, want 50", got)
	}
}

func TestCDFTopShare(t *testing.T) {
	// 9 ones and a 91: top 10% (one value) holds 91% of the mass.
	sample := make([]float64, 10)
	for i := range sample {
		sample[i] = 1
	}
	sample[9] = 91
	c := NewCDF(sample)
	if got := c.TopShare(0.1); math.Abs(got-0.91) > 1e-9 {
		t.Errorf("TopShare(0.1) = %v, want 0.91", got)
	}
	if got := c.TopShare(1); math.Abs(got-1) > 1e-9 {
		t.Errorf("TopShare(1) = %v, want 1", got)
	}
	if got := c.TopShare(0); got != 0 {
		t.Errorf("TopShare(0) = %v, want 0", got)
	}
}

func TestCDFEmpty(t *testing.T) {
	c := NewCDF(nil)
	if c.Quantile(0.5) != 0 || c.TopShare(0.5) != 0 {
		t.Error("empty CDF should return zeros")
	}
	if c.Points(5) != nil {
		t.Error("empty CDF Points should be nil")
	}
}

func TestCDFPoints(t *testing.T) {
	c := NewCDF([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	pts := c.Points(5)
	if len(pts) != 5 {
		t.Fatalf("Points(5) returned %d points", len(pts))
	}
	for i := 1; i < len(pts); i++ {
		if pts[i][0] < pts[i-1][0] || pts[i][1] < pts[i-1][1] {
			t.Errorf("points not monotone: %v", pts)
		}
	}
	if pts[len(pts)-1][1] != 1 {
		t.Errorf("last point probability = %v, want 1", pts[len(pts)-1][1])
	}
}

func TestNewRNGDeterminism(t *testing.T) {
	a := NewRNG(42, 7)
	b := NewRNG(42, 7)
	for i := 0; i < 10; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same seed/stream must produce identical sequences")
		}
	}
	c := NewRNG(42, 8)
	same := true
	a = NewRNG(42, 7)
	for i := 0; i < 10; i++ {
		if a.Float64() != c.Float64() {
			same = false
		}
	}
	if same {
		t.Error("different streams produced identical sequences")
	}
}

func TestLogNormalMedian(t *testing.T) {
	rng := NewRNG(1, 1)
	sample := make([]float64, 20000)
	for i := range sample {
		sample[i] = LogNormal(rng, 4.8, 1.7)
	}
	med := Median(sample)
	if med < 4.0 || med > 5.7 {
		t.Errorf("log-normal median = %v, want ≈4.8", med)
	}
}

func TestParetoMinimumAndTail(t *testing.T) {
	rng := NewRNG(2, 1)
	for i := 0; i < 10000; i++ {
		v := Pareto(rng, 1740, 2.0)
		if v < 1740 {
			t.Fatalf("Pareto drew %v below xm", v)
		}
	}
}

func TestZipfSkew(t *testing.T) {
	rng := NewRNG(3, 1)
	z := NewZipf(100, 1.2)
	counts := make([]int, 100)
	for i := 0; i < 50000; i++ {
		counts[z.Draw(rng)]++
	}
	if counts[0] <= counts[50] {
		t.Errorf("rank 0 (%d) should dominate rank 50 (%d)", counts[0], counts[50])
	}
	total := 0
	for _, c := range counts {
		total += c
	}
	if total != 50000 {
		t.Errorf("draws out of range: counted %d of 50000", total)
	}
}

func TestZipfN(t *testing.T) {
	if len(NewZipf(17, 1).cum) != 17 {
		t.Error("N mismatch")
	}
}

// DrawPrefix on one growing table must equal a fresh NewZipf(n).Draw
// draw for draw, for n in any order (trace.pickReceiver relies on it to
// keep payment traces bit-identical).
func TestZipfDrawPrefixMatchesFreshTable(t *testing.T) {
	shared := NewZipf(1, 1.6)
	a, b := NewRNG(7, 1), NewRNG(7, 1)
	sizes := NewRNG(7, 2)
	for i := 0; i < 5000; i++ {
		n := 1 + sizes.Intn(300)
		if got, want := shared.DrawPrefix(a, n), NewZipf(n, 1.6).Draw(b); got != want {
			t.Fatalf("draw %d over %d ranks: shared table gave %d, fresh table %d", i, n, got, want)
		}
	}
}

// Property: percentile is monotone in p and bounded by min/max.
func TestPercentileMonotoneProperty(t *testing.T) {
	f := func(raw []float64) bool {
		vs := raw[:0]
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				vs = append(vs, v)
			}
		}
		if len(vs) == 0 {
			return true
		}
		prev := math.Inf(-1)
		for p := 0.0; p <= 100; p += 10 {
			v := Percentile(vs, p)
			if v < prev {
				return false
			}
			prev = v
		}
		s := Summarize(vs)
		return Percentile(vs, 0) == s.Min && Percentile(vs, 100) == s.Max
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: the CDF's plotted probabilities are monotone and reach 1
// at the max.
func TestCDFMonotoneProperty(t *testing.T) {
	f := func(raw []float64) bool {
		vs := raw[:0]
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				vs = append(vs, v)
			}
		}
		if len(vs) == 0 {
			return true
		}
		pts := NewCDF(vs).Points(11)
		if last := pts[len(pts)-1]; last[0] != Summarize(vs).Max || last[1] != 1 {
			return false
		}
		for i := 1; i < len(pts); i++ {
			if pts[i][0] < pts[i-1][0] || pts[i][1] < pts[i-1][1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
