package event

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"sort"
	"testing"
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

func TestPeek(t *testing.T) {
	q := NewQueue()
	if _, ok := q.Peek(); ok {
		t.Error("peek on empty queue succeeded")
	}
	q.Schedule(Event{Time: 3})
	q.Schedule(Event{Time: 1})
	e, ok := q.Peek()
	if !ok || e.Time != 1 {
		t.Errorf("peek = %+v, %v; want time 1", e, ok)
	}
	if q.Len() != 2 {
		t.Errorf("peek consumed events: len = %d", q.Len())
	}
}

func TestClockMonotone(t *testing.T) {
	var c Clock
	c.AdvanceTo(1)
	c.AdvanceTo(1) // same instant is fine
	c.AdvanceTo(2.5)
	if c.Now() != 2.5 {
		t.Errorf("Now = %v", c.Now())
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
	if a.Len() != 4 || len(a.Events()) != 4 {
		t.Errorf("retained log length = %d, events %d", a.Len(), len(a.Events()))
	}
	if b.Len() != 4 || b.Events() != nil {
		t.Errorf("unretained log: len %d, events %v", b.Len(), b.Events())
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

// TestQueueSteadyStateAllocs pins the typed heap at zero allocations per
// Schedule+Pop once its backing array has grown: no event is boxed into
// an interface on the way in or out.
func TestQueueSteadyStateAllocs(t *testing.T) {
	var q Queue
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 64; i++ {
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
		t.Fatalf("Schedule+Pop allocates %v/op in steady state, want 0", avg)
	}
}

// TestLogFingerprintGolden pins the fingerprint encoding at its own
// layer: FNV-1a over seven little-endian 64-bit words per event — Time
// and Amount as IEEE bits, Seq, Kind, ID, Attempt sign-extended, and A
// in the high half of one word with B in the low half. The sim goldens
// catch a change to Hash.Add only indirectly; this catches it here, and
// checks Hash.Add against hash/fnv as an independent reference.
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
	var buf [8]byte
	word := func(w uint64) {
		binary.LittleEndian.PutUint64(buf[:], w)
		ref.Write(buf[:])
	}
	for _, e := range events {
		word(math.Float64bits(e.Time))
		word(e.Seq)
		word(uint64(e.Kind))
		word(uint64(e.ID))
		word(uint64(int64(e.Attempt)))
		word(uint64(uint32(e.A))<<32 | uint64(uint32(e.B)))
		word(math.Float64bits(e.Amount))
	}
	if got, want := l.Fingerprint(), ref.Sum64(); got != want {
		t.Errorf("Fingerprint = %#016x, hash/fnv over the seven words = %#016x", got, want)
	}
}
