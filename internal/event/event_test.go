package event

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/topo"
)

func TestQueueOrdersByTimeThenSeq(t *testing.T) {
	q := NewQueue()
	q.Schedule(Event{Time: 2, Kind: ChannelClose})
	q.Schedule(Event{Time: 1, Kind: PaymentArrival, ID: 7})
	q.Schedule(Event{Time: 1, Kind: PaymentComplete, ID: 7}) // same time, later seq
	q.Schedule(Event{Time: 0.5, Kind: DemandShift, Amount: 2})

	var got []Kind
	for {
		e, ok := q.Pop()
		if !ok {
			break
		}
		got = append(got, e.Kind)
	}
	want := []Kind{DemandShift, PaymentArrival, PaymentComplete, ChannelClose}
	if len(got) != len(want) {
		t.Fatalf("popped %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("pop %d = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestQueueSeqBreaksTies(t *testing.T) {
	q := NewQueue()
	for i := 0; i < 100; i++ {
		q.Schedule(Event{Time: 1, ID: int64(i), Kind: PaymentArrival})
	}
	for i := 0; i < 100; i++ {
		e, ok := q.Pop()
		if !ok {
			t.Fatal("queue drained early")
		}
		if e.ID != int64(i) {
			t.Fatalf("tie-broken pop %d returned id %d", i, e.ID)
		}
	}
}

func TestQueueRandomisedIsSorted(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	q := NewQueue()
	times := make([]float64, 500)
	for i := range times {
		times[i] = rng.Float64() * 100
		q.Schedule(Event{Time: times[i], Kind: PaymentArrival, ID: int64(i)})
	}
	sort.Float64s(times)
	for i := range times {
		e, ok := q.Pop()
		if !ok {
			t.Fatal("queue drained early")
		}
		if e.Time != times[i] {
			t.Fatalf("pop %d time = %v, want %v", i, e.Time, times[i])
		}
	}
	if _, ok := q.Pop(); ok {
		t.Error("pop on empty queue succeeded")
	}
}

func TestClockMonotone(t *testing.T) {
	var c Clock
	c.AdvanceTo(1)
	c.AdvanceTo(1) // same instant is fine
	c.AdvanceTo(2.5)
	if c.now != 2.5 {
		t.Errorf("now = %v", c.now)
	}
	defer func() {
		if recover() == nil {
			t.Error("backwards advance did not panic")
		}
	}()
	c.AdvanceTo(2)
}

func TestLogFingerprintDeterministic(t *testing.T) {
	build := func(retain bool) *Log {
		l := Log{Retain: retain}
		l.Record(Event{Time: 0.25, Kind: PaymentArrival, ID: 3})
		l.Record(Event{Time: 0.5, Kind: ChannelClose, A: 1, B: 2})
		l.Record(Event{Time: 0.5, Kind: PaymentComplete, ID: 3, Attempt: 1})
		l.Record(Event{Time: 0.75, Kind: DemandShift, Amount: 1.5})
		return &l
	}
	a, b := build(true), build(false)
	if a.Fingerprint() != b.Fingerprint() {
		t.Error("retention must not change the fingerprint")
	}
	var c Log
	if c.Fingerprint() != uint64(NewHash()) {
		t.Error("empty log fingerprint != offset basis")
	}
	c.Record(Event{Time: 0.25, Kind: PaymentArrival, ID: 4})
	if a.Fingerprint() == c.Fingerprint() {
		t.Error("different logs share a fingerprint")
	}
	counts := a.Counts()
	if counts[PaymentArrival] != 1 || counts[ChannelClose] != 1 || counts[DemandShift] != 1 {
		t.Errorf("counts = %v", counts)
	}
	if a.n != 4 || len(a.Events()) != 4 {
		t.Errorf("retained log length = %d, events %d", a.n, len(a.Events()))
	}
	if b.n != 4 || b.Events() != nil {
		t.Errorf("unretained log: len %d, events %v", b.n, b.Events())
	}
	// The digest is field-sensitive: same times, different payload.
	var d, e Log
	d.Record(Event{Time: 1, Kind: Rebalance, A: 1, B: 2})
	e.Record(Event{Time: 1, Kind: Rebalance, A: 1, B: 3})
	if d.Fingerprint() == e.Fingerprint() {
		t.Error("payload change invisible to fingerprint")
	}
}

func TestKindStrings(t *testing.T) {
	for k := Kind(0); int(k) < NumKinds; k++ {
		if k == 7 { // reserved: the retired threshold-update code
			continue
		}
		if s := k.String(); s == "" || s[0] == 'k' {
			t.Errorf("kind %d has no name: %q", k, s)
		}
	}
	if Kind(200).String() == "" {
		t.Error("unknown kind renders empty")
	}
}

// TestKindCodesPinned: every fingerprint hashes the kind code, so the
// engine-emitted kinds keep theirs across the retired slot 7.
func TestKindCodesPinned(t *testing.T) {
	if DeadlineExpiry != 8 || ControlUpdate != 9 || NumKinds != 10 {
		t.Errorf("DeadlineExpiry = %d, ControlUpdate = %d, NumKinds = %d; want 8, 9, 10",
			DeadlineExpiry, ControlUpdate, NumKinds)
	}
}

// TestQueueSteadyStateAllocs pins the queue at zero allocations per
// Schedule+Pop once its arrays have grown: no event is boxed into an
// interface on the way in or out, and a popped event's slot is reused.
// 150 pending events is engine-churn's depth.
func TestQueueSteadyStateAllocs(t *testing.T) {
	for _, pending := range []int{64, 150} {
		var q Queue
		rng := rand.New(rand.NewSource(3))
		for i := 0; i < pending; i++ {
			q.Schedule(Event{Time: rng.Float64()})
		}
		step := func() {
			e, _ := q.Pop()
			e.Time += rng.ExpFloat64()
			q.Schedule(e)
		}
		for i := 0; i < 1000; i++ { // drain the run into the heap
			step()
		}
		if avg := testing.AllocsPerRun(1000, step); avg != 0 {
			t.Errorf("%d pending: Schedule+Pop allocates %v/op in steady state, want 0", pending, avg)
		}
		if q.Len() != pending {
			t.Errorf("%d pending: Len = %d after steady state", pending, q.Len())
		}
	}
}

// TestScheduleNaNPanics: a NaN time has no place in the (Time, Seq)
// order, before the first Pop and after it.
func TestScheduleNaNPanics(t *testing.T) {
	for _, started := range []bool{false, true} {
		func() {
			var q Queue
			if started {
				q.Schedule(Event{Time: 1})
				q.Pop()
			}
			defer func() {
				if recover() == nil {
					t.Errorf("started=%v: Schedule at NaN did not panic", started)
				}
			}()
			q.Schedule(Event{Time: math.NaN()})
		}()
	}
}

// byteSerialFNV is the fold fnvWord replaced: FNV-1a over the word's
// eight little-endian bytes, one at a time.
func byteSerialFNV(h, w uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= w & 0xFF
		h *= fnvPrime
		w >>= 8
	}
	return h
}

// TestFnvWordIsByteSerial checks the significant-byte fold against the
// byte-serial one on words of every significant length 0–8, with and
// without zero bytes inside the significant span.
func TestFnvWordIsByteSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for n := 0; n <= 8; n++ {
		words := []uint64{}
		if n > 0 {
			top := uint64(1) << (8*n - 8) // the lowest word with n significant bytes
			words = append(words, top, top|1, top*0xFF, top<<7|top-1)
			for i := 0; i < 50; i++ {
				w := rng.Uint64()>>(64-8*n) | top
				words = append(words, w, w&^(0xFF<<(8*uint(rng.Intn(n))))|top) // one inner byte zeroed
			}
		} else {
			words = append(words, 0)
		}
		for _, w := range words {
			for _, h := range []uint64{uint64(NewHash()), 0, rng.Uint64()} {
				if got, want := fnvWord(h, w), byteSerialFNV(h, w); got != want {
					t.Fatalf("fnvWord(%#x, %#x) = %#x, byte-serial fold %#x", h, w, got, want)
				}
			}
		}
	}
}

// FuzzHashAdd checks Hash.Add on arbitrary events against hash/fnv
// over the seven words, from the offset basis and from the state one
// event leaves.
func FuzzHashAdd(f *testing.F) {
	f.Add(0.25, uint64(0), uint8(PaymentArrival), int64(3), 0, int32(0), int32(0), 0.0)
	f.Add(1e9, uint64(1)<<40, uint8(ControlUpdate), int64(-7), -1, int32(1)<<20, int32(99), -0.125)
	f.Add(math.Copysign(0, -1), uint64(255), uint8(ChannelOpen), int64(256), 1, int32(-1), int32(65536), math.Inf(1))
	f.Fuzz(func(t *testing.T, at float64, seq uint64, kind uint8, id int64, attempt int, a, b int32, amount float64) {
		e := Event{Time: at, Seq: seq, Kind: Kind(kind), ID: id, Attempt: attempt, A: topo.NodeID(a), B: topo.NodeID(b), Amount: amount}
		ref := fnv.New64a()
		for range 2 {
			for _, w := range eventWords(e) {
				ref.Write(binary.LittleEndian.AppendUint64(nil, w))
			}
		}
		if got, want := uint64(NewHash().Add(e).Add(e)), ref.Sum64(); got != want {
			t.Errorf("Hash.Add twice on %+v = %#016x, hash/fnv over the words = %#016x", e, got, want)
		}
	})
}

// eventWords is the fingerprint's encoding of one event: Time and
// Amount as IEEE bits, Seq, Kind, ID, Attempt sign-extended, and A in
// the high half of one word with B in the low half.
func eventWords(e Event) [7]uint64 {
	return [7]uint64{
		math.Float64bits(e.Time), e.Seq, uint64(e.Kind), uint64(e.ID), uint64(int64(e.Attempt)),
		uint64(uint32(e.A))<<32 | uint64(uint32(e.B)), math.Float64bits(e.Amount),
	}
}

// TestLogFingerprintGolden pins the fingerprint encoding at its own
// layer: FNV-1a over seven little-endian 64-bit words per event
// (eventWords). The sim goldens catch a change to Hash.Add only
// indirectly; this catches it here, and checks Hash.Add against
// hash/fnv as an independent reference.
func TestLogFingerprintGolden(t *testing.T) {
	events := []Event{
		{Time: 0.25, Seq: 0, Kind: PaymentArrival, ID: 3},
		{Time: 0.5, Seq: 1, Kind: ChannelClose, A: 1, B: 2},
		{Time: 0.5, Seq: 2, Kind: PaymentComplete, ID: 3, Attempt: 1},
		{Time: 0.75, Seq: 3, Kind: DemandShift, Amount: 1.5},
		{Time: 1e9, Seq: 1 << 40, Kind: ControlUpdate, ID: -7, Attempt: -1, A: 1 << 20, B: 99, Amount: -0.125},
	}
	var l Log
	for _, e := range events {
		l.Record(e)
	}
	const golden = 0xf1d3f00c19311e4b
	if got := l.Fingerprint(); got != golden {
		t.Errorf("Fingerprint = %#016x, want %#016x: the encoding changed, and with it every recorded fingerprint", got, uint64(golden))
	}

	ref := fnv.New64a()
	for _, e := range events {
		for _, w := range eventWords(e) {
			ref.Write(binary.LittleEndian.AppendUint64(nil, w))
		}
	}
	if got, want := l.Fingerprint(), ref.Sum64(); got != want {
		t.Errorf("Fingerprint = %#016x, hash/fnv over the seven words = %#016x", got, want)
	}
}

// BenchmarkQueue times one Pop and the Schedule of its successor at
// engine-churn's depth (~150 pending events), the engine's steady state.
func BenchmarkQueue(b *testing.B) {
	var q Queue
	rng := rand.New(rand.NewSource(5))
	gaps := make([]float64, 1024)
	for i := range gaps {
		gaps[i] = rng.ExpFloat64()
	}
	for i := 0; i < 150; i++ {
		q.Schedule(Event{Time: rng.Float64()})
	}
	for i := 0; i < 1000; i++ { // drain the run into the heap
		e, _ := q.Pop()
		e.Time += gaps[i%len(gaps)]
		q.Schedule(e)
	}
	for i := 0; b.Loop(); i++ {
		e, _ := q.Pop()
		e.Time += gaps[i%len(gaps)]
		q.Schedule(e)
	}
}

// BenchmarkHashAdd folds one engine-like event into the fingerprint.
func BenchmarkHashAdd(b *testing.B) {
	h := NewHash()
	e := Event{Time: 1234.5678, Seq: 1 << 20, Kind: PaymentComplete, ID: 150000, Attempt: 1}
	for b.Loop() {
		h = h.Add(e)
		e.Seq++
	}
	hashSink = h
}

var hashSink Hash
