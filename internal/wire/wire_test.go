package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/iotest"
	"testing/quick"

	"repro/internal/topo"
)

func sampleMessage() *Message {
	return &Message{
		TransID:    0xDEADBEEF12345678,
		Type:       TypeProbe,
		Path:       []topo.NodeID{3, 1, 4, 1, 5},
		Pos:        2,
		Capacity:   []float64{10.5, 20.25},
		ReverseCap: []float64{1, 2},
		FeeRate:    []float64{0.001, 0.05},
		Commit:     99.75,
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	m := sampleMessage()
	frame, err := Encode(m)
	if err != nil {
		t.Fatal(err)
	}
	back, err := Decode(frame[4:])
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m, back) {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", back, m)
	}
}

// streamCorpus is the round-trip corpus shared by the stream tests and
// FuzzDecode's seeds: every shape the protocol sends, plus one frame too
// big for a Reader's initial buffer.
func streamCorpus() []*Message {
	long := &Message{TransID: 3, Type: TypeProbeAck, Path: make([]topo.NodeID, 40), Pos: 39}
	for i := range long.Path {
		long.Path[i] = topo.NodeID(i)
		long.Capacity = append(long.Capacity, float64(i))
		long.ReverseCap = append(long.ReverseCap, float64(-i))
		long.FeeRate = append(long.FeeRate, 1/float64(i+1))
	}
	return []*Message{
		sampleMessage(),
		{TransID: 1, Type: TypeCommit, Path: []topo.NodeID{0, 1}, Commit: 5},
		long,
		{TransID: 2, Type: TypeReverseAck, Path: []topo.NodeID{1, 0}, Pos: 1},
	}
}

// equalMessages compares by value, treating a reused Message's empty
// slices and a fresh one's nil slices as the same.
func equalMessages(a, b *Message) bool {
	return a.TransID == b.TransID && a.Type == b.Type && a.Pos == b.Pos && a.Commit == b.Commit &&
		slices.Equal(a.Path, b.Path) && slices.Equal(a.Capacity, b.Capacity) &&
		slices.Equal(a.ReverseCap, b.ReverseCap) && slices.Equal(a.FeeRate, b.FeeRate)
}

// The stream is read three ways — all at once, one byte per Read, and
// with a frame split across two Reads — into one reused Message.
func TestReadWriteStream(t *testing.T) {
	msgs := streamCorpus()
	var stream []byte
	for _, m := range msgs {
		var err error
		if stream, err = AppendFrame(stream, m); err != nil {
			t.Fatal(err)
		}
	}
	sources := map[string]func() io.Reader{
		"whole":    func() io.Reader { return bytes.NewReader(stream) },
		"one-byte": func() io.Reader { return iotest.OneByteReader(bytes.NewReader(stream)) },
		"split": func() io.Reader {
			return io.MultiReader(bytes.NewReader(stream[:7]), bytes.NewReader(stream[7:]))
		},
	}
	for name, source := range sources {
		fr := NewReader(source())
		var got Message
		for i, want := range msgs {
			if err := fr.ReadMessage(&got); err != nil {
				t.Fatalf("%s: message %d: %v", name, i, err)
			}
			if !equalMessages(&got, want) {
				t.Errorf("%s: message %d mismatch: %+v vs %+v", name, i, got, want)
			}
		}
		if err := fr.ReadMessage(&got); err != io.EOF {
			t.Errorf("%s: expected EOF at the end of the stream, got %v", name, err)
		}
	}
}

// A stream that ends inside a frame is not a clean EOF.
// A hello names its node and is read exactly, leaving the frames that
// follow it on the stream; a wrong magic or a short stream is an error.
func TestHello(t *testing.T) {
	var stream bytes.Buffer
	frame, err := Encode(sampleMessage())
	if err != nil {
		t.Fatal(err)
	}
	stream.Write(AppendHello(nil, 1234))
	stream.Write(frame)
	id, err := ReadHello(&stream)
	if err != nil || id != 1234 {
		t.Fatalf("ReadHello = %d, %v; want 1234", id, err)
	}
	if !bytes.Equal(stream.Bytes(), frame) {
		t.Error("ReadHello consumed bytes past the hello")
	}
	hello := AppendHello(nil, 7)
	if len(hello) != helloLen {
		t.Errorf("hello is %d bytes, want %d", len(hello), helloLen)
	}
	bad := append([]byte("HTTP"), hello[4:]...)
	if _, err := ReadHello(bytes.NewReader(bad)); !errors.Is(err, ErrMalformed) {
		t.Errorf("wrong magic: %v, want ErrMalformed", err)
	}
	if _, err := ReadHello(bytes.NewReader(hello[:5])); err != io.ErrUnexpectedEOF {
		t.Errorf("truncated hello: %v, want io.ErrUnexpectedEOF", err)
	}
	if _, err := ReadHello(bytes.NewReader(nil)); err != io.EOF {
		t.Errorf("no hello: %v, want io.EOF", err)
	}
}

func TestReadMessageTruncatedStream(t *testing.T) {
	frame, _ := Encode(sampleMessage())
	for cut := 1; cut < len(frame); cut++ {
		var m Message
		if err := NewReader(bytes.NewReader(frame[:cut])).ReadMessage(&m); err != io.ErrUnexpectedEOF {
			t.Fatalf("stream cut at %d: err = %v, want io.ErrUnexpectedEOF", cut, err)
		}
	}
}

// In steady state — buffers grown to the largest frame seen — framing,
// reading and decoding a frame allocate nothing.
func TestFramerAndReaderDoNotAllocate(t *testing.T) {
	msgs := streamCorpus()
	src := bytes.NewReader(nil)
	fr := NewReader(src)
	var (
		buf []byte
		got Message
		i   int
	)
	allocs := testing.AllocsPerRun(200, func() {
		want := msgs[i%len(msgs)]
		i++
		var err error
		if buf, err = AppendFrame(buf[:0], want); err != nil {
			t.Fatal(err)
		}
		src.Reset(buf)
		if err := fr.ReadMessage(&got); err != nil {
			t.Fatal(err)
		}
		if !equalMessages(&got, want) {
			t.Fatalf("mismatch: %+v vs %+v", got, want)
		}
	})
	if allocs != 0 {
		t.Errorf("%v allocations per frame, want 0", allocs)
	}
}

func TestDecodeMalformed(t *testing.T) {
	m := sampleMessage()
	frame, _ := Encode(m)
	body := frame[4:]

	// Truncations at every byte offset must error, never panic.
	for i := 0; i < len(body); i++ {
		if _, err := Decode(body[:i]); err == nil {
			t.Fatalf("truncation at %d accepted", i)
		}
	}
	// Trailing garbage.
	if _, err := Decode(append(append([]byte{}, body...), 0x00)); err == nil {
		t.Error("trailing bytes accepted")
	}
	// Invalid type.
	bad := append([]byte{}, body...)
	bad[8] = 200
	if _, err := Decode(bad); err == nil {
		t.Error("invalid type accepted")
	}
	// Position outside path.
	bad = append([]byte{}, body...)
	bad[9], bad[10] = 0xFF, 0xFF
	if _, err := Decode(bad); err == nil {
		t.Error("position outside path accepted")
	}
	// A commit amount that would mint or poison funds at every hop.
	for _, m := range badCommits() {
		frame, err := Encode(m)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Decode(frame[4:]); !errors.Is(err, ErrMalformed) {
			t.Errorf("commit %v: err = %v, want ErrMalformed", m.Commit, err)
		}
	}
}

// badCommits are COMMIT frames a hop must never act on: each carries a
// negative or non-finite amount.
func badCommits() []*Message {
	var ms []*Message
	for _, x := range []float64{-50, math.NaN(), math.Inf(1), math.Inf(-1)} {
		ms = append(ms, &Message{TransID: 7, Type: TypeCommit, Path: []topo.NodeID{0, 1, 2}, Pos: 1, Commit: x})
	}
	return ms
}

// CopyFrom leaves nothing shared with its source, and a target whose
// arrays have grown copies without allocating.
func TestCopyFrom(t *testing.T) {
	src := sampleMessage()
	var dst Message
	dst.CopyFrom(src)
	if !reflect.DeepEqual(&dst, src) {
		t.Fatalf("copy = %+v, want %+v", dst, *src)
	}
	src.Path[0], src.Capacity[0], src.ReverseCap[0], src.FeeRate[0] = 9, 9, 9, 9
	if want := sampleMessage(); !reflect.DeepEqual(&dst, want) {
		t.Errorf("copy changed with its source: %+v, want %+v", dst, *want)
	}
	short := &Message{TransID: 1, Type: TypeCommitAck, Path: []topo.NodeID{2, 1, 0}, Commit: 5}
	msgs := []*Message{src, short}
	i := 0
	allocs := testing.AllocsPerRun(100, func() {
		dst.CopyFrom(msgs[i%2])
		i++
	})
	if allocs != 0 {
		t.Errorf("%v allocations per warm CopyFrom, want 0", allocs)
	}
	dst.CopyFrom(short)
	if !equalMessages(&dst, short) {
		t.Errorf("copy of a shorter message = %+v, want %+v", dst, *short)
	}
}

func TestEncodeValidation(t *testing.T) {
	long := make([]topo.NodeID, MaxPathLen+1)
	if _, err := Encode(&Message{Type: TypeProbe, Path: long}); err == nil {
		t.Error("oversized path accepted")
	}
	if _, err := Encode(&Message{Type: TypeInvalid}); err == nil {
		t.Error("invalid type accepted")
	}
	if _, err := Encode(&Message{Type: Type(99)}); err == nil {
		t.Error("unknown type accepted")
	}
}

func TestReadMessageFrameTooLarge(t *testing.T) {
	var m Message
	err := NewReader(bytes.NewReader([]byte{0xFF, 0xFF, 0xFF, 0xFF})).ReadMessage(&m)
	if !errors.Is(err, ErrFrameTooLarge) {
		t.Errorf("err = %v, want ErrFrameTooLarge", err)
	}
}

func TestPathNavigation(t *testing.T) {
	m := &Message{Path: []topo.NodeID{7, 8, 9}, Pos: 1}
	if m.Current() != 8 || m.Prev() != 7 || m.Next() != 9 {
		t.Errorf("navigation: cur=%d prev=%d next=%d", m.Current(), m.Prev(), m.Next())
	}
	m.Pos = 0
	if m.Prev() != -1 {
		t.Error("Prev at start should be -1")
	}
	m.Pos = 2
	if m.Next() != -1 || !m.AtEnd() {
		t.Error("Next at end should be -1 and AtEnd true")
	}
}

func TestTypeString(t *testing.T) {
	if TypeProbe.String() != "PROBE" || TypeConfirmAck.String() != "CONFIRM_ACK" {
		t.Error("type names wrong")
	}
	if Type(77).String() == "" {
		t.Error("unknown type should still stringify")
	}
	if TypeInvalid.Valid() || Type(99).Valid() {
		t.Error("invalid types reported valid")
	}
}

// Property: encode→decode is the identity for arbitrary valid messages.
func TestRoundTripProperty(t *testing.T) {
	gen := func(r *rand.Rand) *Message {
		pathLen := 2 + r.Intn(8)
		m := &Message{
			TransID: r.Uint64(),
			Type:    Type(1 + r.Intn(int(typeMax)-1)),
			Pos:     uint16(r.Intn(pathLen)),
			Commit:  r.Float64() * 1e6,
		}
		m.Path = make([]topo.NodeID, pathLen)
		for i := range m.Path {
			m.Path[i] = topo.NodeID(r.Intn(1 << 20))
		}
		for i := 0; i < r.Intn(pathLen); i++ {
			m.Capacity = append(m.Capacity, r.Float64()*1e9)
			m.ReverseCap = append(m.ReverseCap, r.Float64()*1e9)
			m.FeeRate = append(m.FeeRate, r.Float64())
		}
		return m
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m := gen(r)
		frame, err := Encode(m)
		if err != nil {
			return false
		}
		back, err := Decode(frame[4:])
		if err != nil {
			return false
		}
		return reflect.DeepEqual(m, back)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: random byte blobs never panic the decoder.
func TestDecodeFuzzProperty(t *testing.T) {
	f := func(blob []byte) bool {
		Decode(blob) // must not panic; errors are fine
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func BenchmarkEncode(b *testing.B) {
	m := sampleMessage()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Encode(m); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecode(b *testing.B) {
	frame, _ := Encode(sampleMessage())
	body := frame[4:]
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Decode(body); err != nil {
			b.Fatal(err)
		}
	}
}

// FuzzDecode: arbitrary bytes never panic the decoder; anything accepted
// respects MaxPathLen and re-encodes to the same bytes; decoding into a
// dirty Message (longer slices left by an earlier frame) agrees with
// decoding into a fresh one; and a Reader fed the framed bytes one at a
// time agrees with both.
func FuzzDecode(f *testing.F) {
	for _, m := range streamCorpus() {
		frame, err := Encode(m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame[4:])
		f.Add(frame[4 : len(frame)-3])
	}
	for _, m := range badCommits() {
		frame, err := Encode(m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame[4:])
	}
	leftover := streamCorpus()[2] // the longest message: what a reused target still holds
	f.Fuzz(func(t *testing.T, body []byte) {
		dirty := new(Message)
		dirty.CopyFrom(leftover)
		dirtyErr := DecodeInto(dirty, body)
		fresh, err := Decode(body)
		if (err == nil) != (dirtyErr == nil) {
			t.Fatalf("fresh decode: %v, dirty decode: %v", err, dirtyErr)
		}

		var streamed Message
		streamErr := NewReader(iotest.OneByteReader(bytes.NewReader(
			append(binary.BigEndian.AppendUint32(nil, uint32(len(body))), body...)))).ReadMessage(&streamed)
		if (err == nil) != (streamErr == nil) {
			t.Fatalf("fresh decode: %v, stream decode: %v", err, streamErr)
		}
		if err != nil {
			return
		}

		if len(fresh.Path) > MaxPathLen || len(fresh.Capacity) > MaxPathLen ||
			len(fresh.ReverseCap) > MaxPathLen || len(fresh.FeeRate) > MaxPathLen {
			t.Fatalf("accepted a vector longer than MaxPathLen: %d/%d/%d/%d",
				len(fresh.Path), len(fresh.Capacity), len(fresh.ReverseCap), len(fresh.FeeRate))
		}
		// Compare as bytes: the vectors may hold NaNs.
		for name, m := range map[string]*Message{"fresh": fresh, "dirty": dirty, "streamed": &streamed} {
			frame, err := Encode(m)
			if err != nil {
				t.Fatalf("%s: accepted message does not re-encode: %v", name, err)
			}
			if !bytes.Equal(frame[4:], body) {
				t.Fatalf("%s: re-encoded to different bytes:\n got %x\nwant %x", name, frame[4:], body)
			}
		}
	})
}
