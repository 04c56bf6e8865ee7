package stats

import (
	"math"
	"testing"
)

func TestEWMASeedAndDecay(t *testing.T) {
	e := NewEWMA(0.5)
	if e.Count() != 0 || e.Value() != 0 {
		t.Fatalf("fresh EWMA: count=%d value=%g", e.Count(), e.Value())
	}
	if got := e.Add(100); got != 100 {
		t.Fatalf("first Add must seed: got %g", got)
	}
	if got := e.Add(200); got != 150 {
		t.Fatalf("alpha=0.5 second Add: got %g, want 150", got)
	}
	if got := e.Add(150); got != 150 {
		t.Fatalf("third Add: got %g, want 150", got)
	}
	if e.Count() != 3 {
		t.Fatalf("Count = %d, want 3", e.Count())
	}
	if e.alpha != 0.5 {
		t.Fatalf("alpha = %g", e.alpha)
	}
}

func TestEWMAReset(t *testing.T) {
	e := NewEWMA(0.2)
	e.Add(10)
	e.Add(20)
	e.Reset()
	if e.Count() != 0 || e.Value() != 0 {
		t.Fatalf("after Reset: count=%d value=%g", e.Count(), e.Value())
	}
	if got := e.Add(7); got != 7 {
		t.Fatalf("post-Reset Add must re-seed: got %g", got)
	}
}

func TestEWMAAlphaOneTracksRaw(t *testing.T) {
	e := NewEWMA(1)
	for _, x := range []float64{3, 99, -4} {
		if got := e.Add(x); got != x {
			t.Fatalf("alpha=1 must track raw: Add(%g)=%g", x, got)
		}
	}
}

func TestNewEWMARejectsBadAlpha(t *testing.T) {
	for _, a := range []float64{0, -0.1, 1.1, math.NaN()} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewEWMA(%g) did not panic", a)
				}
			}()
			NewEWMA(a)
		}()
	}
}

func TestQuantileStdErr(t *testing.T) {
	e := NewQuantileEstimator(0.9)
	// Under 5 observations the P² markers aren't initialised: no
	// density estimate, so the error is unbounded.
	for i := 0; i < 4; i++ {
		e.Add(float64(i))
		if !math.IsInf(e.StdErr(), 1) {
			t.Fatalf("StdErr finite at count %d", e.Count())
		}
	}

	// A uniform [0,1000) stream has density 1/1000 everywhere, so
	// SE ≈ sqrt(0.9·0.1/n)·1000. Check the right order of magnitude
	// and the 1/sqrt(n) shrink.
	rng := NewRNG(3, 0x5E)
	var seAt1k float64
	for i := 0; i < 10000; i++ {
		e.Add(rng.Float64() * 1000)
		if e.Count() == 1000 {
			seAt1k = e.StdErr()
		}
	}
	se := e.StdErr()
	want := math.Sqrt(0.9*0.1/10000) * 1000 // ≈ 3.0
	if se <= 0 || math.IsInf(se, 1) {
		t.Fatalf("StdErr = %g on a 10k uniform stream", se)
	}
	if se < want/5 || se > want*5 {
		t.Errorf("StdErr = %g, want within 5x of the analytic %g", se, want)
	}
	if seAt1k <= se {
		t.Errorf("StdErr did not shrink with n: %g at 1k vs %g at 10k", seAt1k, se)
	}
}
