package trace

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/stats"
)

// ArrivalProcess generates the virtual arrival times of a payment
// stream. Implementations are pure functions of the supplied RNG, so a
// seeded process replays identically.
type ArrivalProcess interface {
	// NextAfter draws the next arrival time strictly after now
	// (virtual seconds).
	NextAfter(rng *rand.Rand, now float64) float64
	// Validate reports whether the process parameters can produce
	// finite, strictly-increasing arrival times. NextAfter divides by
	// its rate, so a zero, negative or non-finite rate would silently
	// inject +Inf/NaN timestamps into the event heap (or spin forever
	// in rejection sampling); constructors such as NewStream and the
	// dynamic engine call Validate so the misconfiguration surfaces as
	// an error instead.
	Validate() error
}

// Poisson is a homogeneous Poisson arrival process: exponential
// inter-arrival times at a constant rate (payments per virtual
// second) — the classic steady-state workload model.
type Poisson struct {
	Rate float64
}

// NextAfter implements ArrivalProcess.
func (p Poisson) NextAfter(rng *rand.Rand, now float64) float64 {
	return now + rng.ExpFloat64()/p.Rate
}

// Validate implements ArrivalProcess: the rate must be positive and
// finite.
func (p Poisson) Validate() error { return validRate("poisson", "rate", p.Rate) }

// validRate rejects rates that would make an exponential draw +Inf,
// NaN or zero-gap.
func validRate(process, field string, rate float64) error {
	if math.IsNaN(rate) || math.IsInf(rate, 0) || rate <= 0 {
		return fmt.Errorf("trace: %s arrival process needs a positive finite %s, got %v", process, field, rate)
	}
	return nil
}

// FlashCrowd is a piecewise-constant non-homogeneous Poisson process:
// BaseRate everywhere except a surge window [Start, Start+Duration),
// where the rate multiplies by Peak. It models the flash-crowd
// scenarios (a shop sale, an exchange event) that stress routing far
// beyond the average load the balances were provisioned for.
type FlashCrowd struct {
	BaseRate float64 // payments per second outside the surge
	Peak     float64 // rate multiplier during the surge (≥ 1)
	Start    float64 // surge start, virtual seconds
	Duration float64 // surge length, virtual seconds
}

// rate is the instantaneous arrival rate at time t.
func (f FlashCrowd) rate(t float64) float64 {
	if t >= f.Start && t < f.Start+f.Duration {
		return f.BaseRate * f.Peak
	}
	return f.BaseRate
}

// NextAfter implements ArrivalProcess by thinning (Lewis & Shedler):
// candidate arrivals are drawn at the peak rate and accepted with
// probability rate(t)/peak, which samples the non-homogeneous process
// exactly and deterministically for a given RNG.
func (f FlashCrowd) NextAfter(rng *rand.Rand, now float64) float64 {
	peak := f.BaseRate * math.Max(f.Peak, 1)
	return thin(rng, now, peak, f.rate)
}

// Validate implements ArrivalProcess: the base rate must be positive
// and finite, and the surge multiplier positive and finite (values in
// (0, 1] are honoured as "no surge"; a multiplier ≤ 0 would zero the
// rate inside the surge window and make the thinning loop spin
// practically forever — exactly the failure class Validate exists to
// reject).
func (f FlashCrowd) Validate() error {
	if err := validRate("flash-crowd", "base rate", f.BaseRate); err != nil {
		return err
	}
	if math.IsNaN(f.Peak) || math.IsInf(f.Peak, 0) || f.Peak <= 0 {
		return fmt.Errorf("trace: flash-crowd arrival process needs a positive finite peak multiplier, got %v", f.Peak)
	}
	return nil
}

// Diurnal is a sinusoidally-modulated Poisson process: the rate drifts
// around MeanRate with relative amplitude Swing over a Period-second
// cycle, modelling the day/night demand drift of real payment traces.
type Diurnal struct {
	MeanRate float64 // average payments per second
	Swing    float64 // relative amplitude in [0, 1)
	Period   float64 // seconds per cycle
}

// rate is the instantaneous arrival rate at time t.
func (d Diurnal) rate(t float64) float64 {
	return d.MeanRate * (1 + d.Swing*math.Sin(2*math.Pi*t/d.Period))
}

// NextAfter implements ArrivalProcess by thinning against the cycle
// peak rate.
func (d Diurnal) NextAfter(rng *rand.Rand, now float64) float64 {
	peak := d.MeanRate * (1 + d.Swing)
	return thin(rng, now, peak, d.rate)
}

// Validate implements ArrivalProcess: the mean rate and period must be
// positive and finite (a zero period would make the modulated rate NaN
// and the thinning loop spin forever), the swing within [0, 1) so the
// instantaneous rate stays positive.
func (d Diurnal) Validate() error {
	if err := validRate("diurnal", "mean rate", d.MeanRate); err != nil {
		return err
	}
	if math.IsNaN(d.Swing) || d.Swing < 0 || d.Swing >= 1 {
		return fmt.Errorf("trace: diurnal arrival process needs a swing in [0, 1), got %v", d.Swing)
	}
	if math.IsNaN(d.Period) || math.IsInf(d.Period, 0) || d.Period <= 0 {
		return fmt.Errorf("trace: diurnal arrival process needs a positive finite period, got %v", d.Period)
	}
	return nil
}

// thin samples the next arrival of a non-homogeneous Poisson process
// with instantaneous rate fn(t) bounded by peak, via rejection.
func thin(rng *rand.Rand, now, peak float64, fn func(float64) float64) float64 {
	t := now
	for {
		t += rng.ExpFloat64() / peak
		if rng.Float64()*peak <= fn(t) {
			return t
		}
	}
}

// PaymentSource yields timestamped payments in non-decreasing arrival
// order. It is the lazy replacement for materialised []Payment slices:
// the dynamic simulator pulls one payment at a time, so arbitrarily
// long workloads cost O(1) memory.
type PaymentSource interface {
	// Next returns the next payment and its arrival time in virtual
	// seconds; ok=false means the source is exhausted.
	Next() (p Payment, at float64, ok bool)
}

// Stream lazily pairs a Generator's payments with an arrival process.
// It never exhausts — the caller bounds the run with a time horizon.
type Stream struct {
	gen *Generator
	arr ArrivalProcess
	rng *rand.Rand
	now float64
}

// NewStream builds a lazy payment stream: payment contents come from
// gen (in generation order), arrival times from arr driven by an RNG
// derived from seed. The two random streams are independent, so the
// same payment sequence can be replayed under different arrival
// processes. The arrival process is validated here, so a zero or
// negative rate fails loudly instead of feeding +Inf/NaN timestamps
// to whatever consumes the stream.
func NewStream(gen *Generator, arr ArrivalProcess, seed int64) (*Stream, error) {
	if gen == nil || arr == nil {
		return nil, fmt.Errorf("trace: stream needs a generator and an arrival process")
	}
	if err := arr.Validate(); err != nil {
		return nil, err
	}
	return &Stream{gen: gen, arr: arr, rng: stats.NewRNG(seed, 0xA881)}, nil
}

// Next implements PaymentSource. The payment's Time field is rewritten
// to the arrival time (converted to the trace's day unit) so the
// recurrence analyses keep working on dynamic workloads.
func (s *Stream) Next() (Payment, float64, bool) {
	s.now = s.arr.NextAfter(s.rng, s.now)
	p := s.gen.Next()
	p.Time = s.now / SecondsPerDay
	return p, s.now, true
}

// SetAmountScale forwards a demand shift to the underlying generator.
func (s *Stream) SetAmountScale(factor float64) { s.gen.SetAmountScale(factor) }

// Validate re-checks the stream's arrival process (already validated
// at construction); the dynamic engine calls it on any source that
// offers it, so hand-built sources get the same guard.
func (s *Stream) Validate() error { return s.arr.Validate() }

// SecondsPerDay converts between the trace's day-denominated logical
// timestamps and the dynamic simulator's virtual seconds.
const SecondsPerDay = 86400

// ReplayStream replays an existing payment slice in order, with
// arrival times taken from the payments' own logical timestamps
// (days, converted to seconds). It pins a dynamic run to the exact
// payment order of a static replay — the bridge the zero-churn
// equivalence tests walk across.
type ReplayStream struct {
	payments []Payment
	next     int
}

// NewReplayStream wraps payments (not copied) as a PaymentSource.
func NewReplayStream(payments []Payment) *ReplayStream {
	return &ReplayStream{payments: payments}
}

// Next implements PaymentSource.
func (r *ReplayStream) Next() (Payment, float64, bool) {
	if r.next >= len(r.payments) {
		return Payment{}, 0, false
	}
	p := r.payments[r.next]
	r.next++
	return p, p.Time * SecondsPerDay, true
}
