package core

import (
	"encoding/binary"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"testing"
	"time"

	"repro/internal/trace"
)

// sortThreshold is ThresholdForMiceFraction as a full sort of a copy:
// the reference the selection is compared against.
func sortThreshold(amounts []float64, frac float64) float64 {
	if frac <= 0 {
		return 0
	}
	if frac >= 1 || len(amounts) == 0 {
		return math.Inf(1)
	}
	sorted := append([]float64(nil), amounts...)
	sort.Float64s(sorted)
	idx := int(math.Ceil(frac*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// checkAgainstSort compares ThresholdForMiceFraction with sortThreshold
// on one input and checks the input is left as it was. Equal means ==
// or both NaN: a sort gives no fixed order to −0 and +0.
func checkAgainstSort(t *testing.T, amounts []float64, frac float64) {
	t.Helper()
	before := make([]uint64, len(amounts))
	for i, a := range amounts {
		before[i] = math.Float64bits(a)
	}
	got := ThresholdForMiceFraction(amounts, frac)
	want := sortThreshold(amounts, frac)
	if got != want && !(math.IsNaN(got) && math.IsNaN(want)) {
		t.Fatalf("n=%d frac=%v: got %v, want %v (amounts %v)", len(amounts), frac, got, want, amounts)
	}
	for i, a := range amounts {
		if math.Float64bits(a) != before[i] {
			t.Fatalf("n=%d frac=%v: amounts[%d] changed from %v to %v", len(amounts), frac, i, math.Float64frombits(before[i]), a)
		}
	}
}

// specials are the values whose order a selection can get wrong.
var specials = []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1), 1, -1, math.MaxFloat64, math.SmallestNonzeroFloat64}

// TestThresholdMatchesSort runs the selection and the sort on random
// slices of length 1–500 in every shape a partition handles apart.
func TestThresholdMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(48))
	shapes := []func(n int) []float64{
		func(n int) []float64 { // random
			v := make([]float64, n)
			for i := range v {
				v[i] = trace.RippleSizes.Sample(rng)
			}
			return v
		},
		func(n int) []float64 { // all equal
			v := make([]float64, n)
			for i := range v {
				v[i] = 7
			}
			return v
		},
		func(n int) []float64 { // sorted
			v := make([]float64, n)
			for i := range v {
				v[i] = float64(i)
			}
			return v
		},
		func(n int) []float64 { // reverse-sorted
			v := make([]float64, n)
			for i := range v {
				v[i] = float64(n - i)
			}
			return v
		},
		func(n int) []float64 { // many duplicates
			v := make([]float64, n)
			for i := range v {
				v[i] = float64(rng.Intn(4))
			}
			return v
		},
		func(n int) []float64 { // ±0, ±Inf, NaN among numbers
			v := make([]float64, n)
			for i := range v {
				if rng.Intn(2) == 0 {
					v[i] = specials[rng.Intn(len(specials))]
				} else {
					v[i] = rng.NormFloat64()
				}
			}
			return v
		},
	}
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(500)
		if trial < 20 {
			n = 1 + trial
		}
		for _, shape := range shapes {
			amounts := shape(n)
			for _, frac := range []float64{0.001, 0.5, 0.9, 0.999, 1 - 1/float64(n)} {
				checkAgainstSort(t, amounts, frac)
			}
		}
	}
}

// FuzzThresholdForMiceFraction compares the selection with the sort. In
// narrow mode each byte is one amount from a small alphabet holding the
// special values, so duplicates are common; in wide mode each 8 bytes
// are one amount's bits, so any float64 can occur.
func FuzzThresholdForMiceFraction(f *testing.F) {
	f.Add([]byte{9, 9, 9, 9, 9, 9, 9, 9, 9, 9}, 0.9, false)
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 200, 100, 0, 4, 3}, 0.5, false)
	f.Add([]byte{250, 240, 230, 220, 210, 200, 190, 180, 170, 160, 150, 140}, 0.999, false)
	f.Add([]byte{0, 0, 0, 0, 0, 0, 248, 127, 0, 0, 0, 0, 0, 0, 0, 128, 1, 2, 3, 4, 5, 6, 7, 8}, 0.5, true)
	f.Fuzz(func(t *testing.T, data []byte, frac float64, wide bool) {
		var amounts []float64
		if wide {
			for ; len(data) >= 8; data = data[8:] {
				amounts = append(amounts, math.Float64frombits(binary.LittleEndian.Uint64(data)))
			}
		} else {
			for _, b := range data {
				if int(b) < len(specials) {
					amounts = append(amounts, specials[b])
				} else {
					amounts = append(amounts, float64(b)-128)
				}
			}
		}
		checkAgainstSort(t, amounts, frac)
	})
}

// rippleAmounts draws n payment sizes from the Ripple size model.
func rippleAmounts(n int) []float64 {
	rng := rand.New(rand.NewSource(1))
	amounts := make([]float64, n)
	for i := range amounts {
		amounts[i] = trace.RippleSizes.Sample(rng)
	}
	return amounts
}

// TestThresholdForMiceFractionAllocs pins the threshold at one
// allocation, the copy it selects in, at a workload's 200k amounts.
func TestThresholdForMiceFractionAllocs(t *testing.T) {
	amounts := rippleAmounts(200_000)
	// Each copy is 1.6 MB, so the runs collect garbage; the first
	// collection of a process allocates its mark workers. Run it first.
	runtime.GC()
	if got := testing.AllocsPerRun(5, func() { ThresholdForMiceFraction(amounts, 0.9) }); got != 1 {
		t.Errorf("ThresholdForMiceFraction allocates %v times, want 1", got)
	}
}

// TestThresholdAdversarialFallsBack feeds an organ-pipe slice of 1M
// values (0, 1, …, n/2−1, n/2−1, …, 0), on which the median of first,
// middle and last element stays near the open range's minimum for
// dozens of rounds, each shrinking the range by a few elements: the
// selection must spend its round budget, sort the open range and stay
// fast.
func TestThresholdAdversarialFallsBack(t *testing.T) {
	const n = 1 << 20
	amounts := make([]float64, n)
	for i := 0; i < n/2; i++ {
		amounts[i] = float64(i)
		amounts[n-1-i] = float64(i)
	}
	k := int(math.Ceil(0.9*n)) - 1
	v := append([]float64(nil), amounts...)
	start := time.Now()
	if !nthElement(v, k) {
		t.Error("the organ-pipe input did not exhaust the partition budget")
	}
	elapsed := time.Since(start)
	limit := time.Second
	if raceEnabled {
		limit *= 10
	}
	if elapsed > limit {
		t.Errorf("selection took %v on 1M values, want under %v", elapsed, limit)
	}
	if want := sortThreshold(amounts, 0.9); v[k] != want {
		t.Errorf("selected %v, want %v", v[k], want)
	}
}

// BenchmarkThresholdForMiceFraction times the threshold over 200k
// Ripple-sized amounts, the size of the engine-churn workload's trace.
func BenchmarkThresholdForMiceFraction(b *testing.B) {
	amounts := rippleAmounts(200_000)
	b.ReportAllocs()
	for b.Loop() {
		ThresholdForMiceFraction(amounts, 0.9)
	}
}
