package event

import (
	"container/heap"
	"math"
	"math/rand"
	"testing"
)

// oracleQueue is the queue as it was before the sorted run: every event
// boxed into one container/heap. Seq is unique, so (Time, Seq) is a
// strict order and any correct queue pops exactly the sequence this one
// does — the reference the differential tests compare Queue against.
type oracleQueue struct {
	h   oracleHeap
	seq uint64
}

func (q *oracleQueue) Schedule(e Event) Event {
	e.Seq = q.seq
	q.seq++
	heap.Push(&q.h, e)
	return e
}

func (q *oracleQueue) Pop() (Event, bool) {
	if len(q.h) == 0 {
		return Event{}, false
	}
	return heap.Pop(&q.h).(Event), true
}

type oracleHeap []Event

// floatBefore is the (Time, Seq) order read off the floats themselves,
// the reference for the queue's integer keys: −0 and +0 are one
// instant, and ±Inf sit at the ends.
func floatBefore(a, b Event) bool {
	if a.Time != b.Time {
		return a.Time < b.Time
	}
	return a.Seq < b.Seq
}

func (h oracleHeap) Len() int           { return len(h) }
func (h oracleHeap) Less(i, j int) bool { return floatBefore(h[i], h[j]) }
func (h oracleHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *oracleHeap) Push(x any)        { *h = append(*h, x.(Event)) }
func (h *oracleHeap) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

// instants are the absolute times a batch draws from: ordinary times
// and the values at which the queue's integer keys could part from
// the float order — both zeros, the smallest subnormals, the largest
// finite values and both infinities. Index 3 is 1.5.
var instants = [16]float64{
	math.Inf(-1), -math.MaxFloat64, -0.5, 1.5,
	math.Copysign(0, -1), 0, -math.SmallestNonzeroFloat64, math.SmallestNonzeroFloat64,
	0.5, 1, 2, 2.5, 3.5, 7.5, math.MaxFloat64, math.Inf(1),
}

// runQueueOps decodes ops from data, applies each to a Queue and to the
// oracle, and fails on the first difference. One byte picks the op:
//
//   - batch: 1–8 events at instants, so ties on Time are common,
//     −0 and +0 meet at one instant, and negative and infinite times
//     occur. Batches before the first pop fill the sorted run; later
//     ones may land before the run's head.
//   - one event at the last popped time plus 0–1.75s, ties included —
//     the engine's own scheduling, usually earlier than the run head.
//     After −0 it lands at +0.
//   - Pop (two of the four op codes).
//
// Len is compared after every op, and both queues are drained at the end.
func runQueueOps(t *testing.T, data []byte) {
	t.Helper()
	var q Queue
	var o oracleQueue
	var id int64
	last := 0.0
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	schedule := func(at float64, kind byte) {
		e := Event{Time: at, Kind: Kind(kind % byte(NumKinds)), ID: id}
		id++
		if got, want := q.Schedule(e), o.Schedule(e); got != want {
			t.Fatalf("Schedule stamped %+v, oracle %+v", got, want)
		}
	}
	pop := func(op string, f func() (Event, bool), g func() (Event, bool)) {
		got, ok := f()
		want, wantOK := g()
		// == holds between −0 and +0: the bits show a payload whose
		// time lost its sign.
		if got != want || math.Float64bits(got.Time) != math.Float64bits(want.Time) || ok != wantOK {
			t.Fatalf("%s = %+v, %v; oracle %+v, %v", op, got, ok, want, wantOK)
		}
		if ok {
			last = got.Time
		}
	}
	for len(data) > 0 {
		b := next()
		switch b % 4 {
		case 0:
			for n := 1 + int(b>>2)%8; n > 0; n-- {
				tb := next()
				schedule(instants[tb%16], tb>>4)
			}
		case 1:
			tb := next()
			schedule(last+float64(tb%8)/4, tb>>3)
		case 2, 3:
			pop("Pop", q.Pop, o.Pop)
		}
		if q.Len() != o.h.Len() {
			t.Fatalf("Len = %d, oracle %d", q.Len(), o.h.Len())
		}
	}
	for q.Len() > 0 || o.h.Len() > 0 {
		pop("Pop", q.Pop, o.Pop)
	}
	pop("Pop", q.Pop, o.Pop) // both empty
}

// TestQueueMatchesOracle runs random op sequences through runQueueOps,
// so the differential check runs on every go test, not only under -fuzz.
func TestQueueMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 300; i++ {
		data := make([]byte, 1+rng.Intn(400))
		rng.Read(data)
		runQueueOps(t, data)
	}
}

// FuzzQueue is the differential check under the fuzzer: any op sequence
// must pop and count exactly what the container/heap oracle does.
func FuzzQueue(f *testing.F) {
	f.Add([]byte{})
	// A batch before the first pop, then pops interleaved with events
	// earlier than the run's head.
	f.Add([]byte{0x1C, 0x07, 0x03, 0x03, 0x0E, 0x00, 0x05, 0x09, 0x01, 2, 1, 0x00, 2, 3, 2, 1, 0x05, 2, 2, 2})
	// Ties only: every event at t=1.5.
	f.Add([]byte{0x0C, 0x03, 0x13, 0x23, 0x33, 2, 0x00, 0x03, 1, 0x00, 2, 3, 2, 2, 2})
	// A pop before any event, then a late batch after the run drained.
	f.Add([]byte{3, 2, 0x04, 0x0F, 0x01, 3, 2, 0x08, 0x02, 0x02, 0x00, 3, 2, 2, 2, 2})
	// −0 and +0 in one batch, a relative event at −0 + 0, both
	// infinities and the subnormals either side of zero.
	f.Add([]byte{0x1C, 0x04, 0x05, 0x06, 0x07, 0x00, 0x0F, 0x05, 0x04, 2, 2, 2, 1, 0x00, 2, 3, 2, 2, 2, 2})
	f.Fuzz(runQueueOps)
}
