package trace

import (
	"math"
	"testing"

	"repro/internal/stats"
)

// drawArrivals samples n arrival times from a process.
func drawArrivals(t *testing.T, arr ArrivalProcess, seed int64, n int) []float64 {
	t.Helper()
	rng := stats.NewRNG(seed, 0xA881)
	times := make([]float64, n)
	now := 0.0
	for i := range times {
		now = arr.NextAfter(rng, now)
		if i > 0 && now <= times[i-1] {
			t.Fatalf("arrival %d not strictly increasing: %v after %v", i, now, times[i-1])
		}
		times[i] = now
	}
	return times
}

func TestPoissonRate(t *testing.T) {
	arr := Poisson{Rate: 5}
	n := 20000
	times := drawArrivals(t, arr, 1, n)
	rate := float64(n) / times[n-1]
	if math.Abs(rate-5) > 0.25 {
		t.Errorf("empirical rate = %v, want ≈5", rate)
	}
}

func TestFlashCrowdSurges(t *testing.T) {
	arr := FlashCrowd{BaseRate: 2, Peak: 10, Start: 100, Duration: 50}
	times := drawArrivals(t, arr, 2, 4000)
	var before, during int
	for _, at := range times {
		switch {
		case at < 100:
			before++
		case at < 150:
			during++
		}
	}
	// 100s at rate 2 ≈ 200 arrivals; 50s at rate 20 ≈ 1000 arrivals.
	if before == 0 || during == 0 {
		t.Fatalf("degenerate split: before=%d during=%d", before, during)
	}
	beforeRate := float64(before) / 100
	duringRate := float64(during) / 50
	if duringRate < 5*beforeRate {
		t.Errorf("surge rate %v not ≫ base rate %v", duringRate, beforeRate)
	}
}

func TestDiurnalDrifts(t *testing.T) {
	arr := Diurnal{MeanRate: 10, Swing: 0.8, Period: 100}
	times := drawArrivals(t, arr, 3, 20000)
	// Count arrivals in the peak and trough quarter-cycles of each
	// period: rate(t) peaks around t≡25 (sin=1) and troughs around t≡75.
	var peak, trough int
	for _, at := range times {
		phase := math.Mod(at, 100)
		switch {
		case phase >= 12.5 && phase < 37.5:
			peak++
		case phase >= 62.5 && phase < 87.5:
			trough++
		}
	}
	if trough == 0 || float64(peak)/float64(trough) < 2 {
		t.Errorf("peak/trough arrivals = %d/%d, want strong modulation", peak, trough)
	}
}

func TestStreamDeterministicAndLazy(t *testing.T) {
	build := func() *Stream {
		gen, err := NewGenerator(DefaultConfig(50))
		if err != nil {
			t.Fatal(err)
		}
		s, err := NewStream(gen, Poisson{Rate: 1}, 9)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	a, b := build(), build()
	last := -1.0
	for i := 0; i < 200; i++ {
		pa, ta, oka := a.Next()
		pb, tb, okb := b.Next()
		if !oka || !okb {
			t.Fatal("stream exhausted")
		}
		if pa != pb || ta != tb {
			t.Fatalf("streams diverged at %d: %+v@%v vs %+v@%v", i, pa, ta, pb, tb)
		}
		if ta <= last {
			t.Fatalf("arrival times not increasing at %d", i)
		}
		last = ta
		if want := ta / SecondsPerDay; pa.Time != want {
			t.Errorf("payment time %v, want %v", pa.Time, want)
		}
	}
}

func TestStreamMatchesGeneratorPayments(t *testing.T) {
	// The stream must yield the same payment contents as Generate on an
	// identically-seeded generator — only timestamps differ.
	cfg := DefaultConfig(50)
	gen1, _ := NewGenerator(cfg)
	want := gen1.Generate(100)

	gen2, _ := NewGenerator(cfg)
	s, _ := NewStream(gen2, Poisson{Rate: 3}, 4)
	for i := range want {
		p, _, _ := s.Next()
		p.Time = want[i].Time // timestamps legitimately differ
		if p != want[i] {
			t.Fatalf("payment %d diverged: %+v vs %+v", i, p, want[i])
		}
	}
}

func TestReplayStream(t *testing.T) {
	ps := []Payment{
		{ID: 0, Sender: 1, Receiver: 2, Amount: 5, Time: 0},
		{ID: 1, Sender: 2, Receiver: 3, Amount: 6, Time: 0.5},
	}
	r := NewReplayStream(ps)
	p, at, ok := r.Next()
	if !ok || p.ID != 0 || at != 0 {
		t.Fatalf("first = %+v @%v ok=%v", p, at, ok)
	}
	p, at, ok = r.Next()
	if !ok || p.ID != 1 || at != 0.5*SecondsPerDay {
		t.Fatalf("second = %+v @%v ok=%v", p, at, ok)
	}
	if _, _, ok = r.Next(); ok {
		t.Error("exhausted stream still yields")
	}
}

func TestSetAmountScale(t *testing.T) {
	cfg := DefaultConfig(50)
	base, _ := NewGenerator(cfg)
	scaled, _ := NewGenerator(cfg)
	scaled.SetAmountScale(3)
	for i := 0; i < 50; i++ {
		a, b := base.Next(), scaled.Next()
		if math.Abs(b.Amount-3*a.Amount) > 1e-12*a.Amount {
			t.Fatalf("payment %d: scaled amount %v, want %v", i, b.Amount, 3*a.Amount)
		}
	}
	scaled.SetAmountScale(0) // ignored
	scaled.SetAmountScale(-2)
	a, b := base.Next(), scaled.Next()
	if math.Abs(b.Amount-3*a.Amount) > 1e-12*a.Amount {
		t.Error("non-positive scale factors should be ignored")
	}
}
