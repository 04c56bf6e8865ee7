package telemetry

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

func sampleRecord(id int64) *FlowRecord {
	return &FlowRecord{
		ID:             id,
		Scheme:         "Flash",
		Sender:         3,
		Receiver:       7,
		Amount:         12.5,
		Class:          ClassElephant,
		Attempts:       2,
		ProbeRounds:    4,
		ProbeMessages:  18,
		CommitMessages: 9,
		Paths:          3,
		Fees:           0.125,
		Arrival:        100.5,
		Complete:       101.25,
		ProbeLatency:   0.375,
		CommitLatency:  0.0625,
		WallNS:         42_000,
		Outcome:        OutcomeDelivered,
	}
}

func TestAppendJSONRoundTrip(t *testing.T) {
	r := sampleRecord(11)
	line := r.AppendJSON(nil)
	var got map[string]any
	if err := json.Unmarshal(line, &got); err != nil {
		t.Fatalf("AppendJSON produced invalid JSON %q: %v", line, err)
	}
	want := map[string]any{
		"id": 11.0, "scheme": "Flash", "sender": 3.0, "receiver": 7.0,
		"amount": 12.5, "class": "elephant", "attempts": 2.0,
		"probeRounds": 4.0, "probeMsgs": 18.0, "commitMsgs": 9.0,
		"paths": 3.0, "fees": 0.125, "arrival": 100.5, "complete": 101.25,
		"probeLat": 0.375, "commitLat": 0.0625,
		"wallNs": 42000.0, "outcome": "delivered",
	}
	if len(got) != len(want) {
		t.Fatalf("got %d fields, want %d: %q", len(got), len(want), line)
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("field %q = %v, want %v", k, got[k], v)
		}
	}
}

func TestAppendJSONEscapesAndNonFinite(t *testing.T) {
	r := &FlowRecord{Scheme: "a\"b\\c\n", Amount: math.NaN(), Fees: math.Inf(1)}
	line := r.AppendJSON(nil)
	var got map[string]any
	if err := json.Unmarshal(line, &got); err != nil {
		t.Fatalf("invalid JSON %q: %v", line, err)
	}
	if got["scheme"] != "a\"b\\c\n" {
		t.Errorf("scheme = %q", got["scheme"])
	}
	if got["amount"] != nil || got["fees"] != nil {
		t.Errorf("non-finite floats should render null: amount=%v fees=%v", got["amount"], got["fees"])
	}
}

func TestJSONLSink(t *testing.T) {
	var buf bytes.Buffer
	s := NewJSONLSink(&buf)
	for i := int64(0); i < 3; i++ {
		s.Emit(sampleRecord(i))
	}
	if err := s.Close(); err != nil { // drains the async writer
		t.Fatal(err)
	}
	if s.Count() != 3 {
		t.Fatalf("Count=%d, want 3", s.Count())
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("got %d lines, want 3", len(lines))
	}
	for i, ln := range lines {
		var got map[string]any
		if err := json.Unmarshal([]byte(ln), &got); err != nil {
			t.Fatalf("line %d invalid: %v", i, err)
		}
		if got["id"] != float64(i) {
			t.Errorf("line %d id = %v", i, got["id"])
		}
	}
}

type failWriter struct{ n int }

func (w *failWriter) Write(p []byte) (int, error) {
	if w.n <= 0 {
		return 0, io.ErrClosedPipe
	}
	w.n--
	return len(p), nil
}

func TestJSONLSinkStickyError(t *testing.T) {
	s := NewJSONLSink(&failWriter{n: 1})
	s.Emit(sampleRecord(0))
	s.Emit(sampleRecord(1))
	s.Emit(sampleRecord(2))
	if err := s.Close(); err != io.ErrClosedPipe {
		t.Errorf("Close = %v, want %v", err, io.ErrClosedPipe)
	}
	if s.Count() != 1 {
		t.Errorf("Count = %d, want 1", s.Count())
	}
	if s.Err() != io.ErrClosedPipe {
		t.Errorf("Err = %v", s.Err())
	}
}

func TestFlowLogRing(t *testing.T) {
	l := NewFlowLog(4)
	for i := int64(0); i < 10; i++ {
		l.Emit(sampleRecord(i))
	}
	if l.Total() != 10 {
		t.Fatalf("Total = %d", l.Total())
	}
	snap := l.Snapshot()
	if len(snap) != 4 {
		t.Fatalf("Snapshot len = %d, want 4", len(snap))
	}
	for i, rec := range snap {
		if rec.ID != int64(6+i) {
			t.Errorf("snap[%d].ID = %d, want %d", i, rec.ID, 6+i)
		}
	}
}

func TestFlowLogSubscribe(t *testing.T) {
	l := NewFlowLog(4)
	ch := l.subscribe(8)
	defer l.unsubscribe(ch)
	l.Emit(sampleRecord(42))
	select {
	case rec := <-ch:
		if rec.ID != 42 {
			t.Errorf("ID = %d", rec.ID)
		}
	case <-time.After(time.Second):
		t.Fatal("no record delivered")
	}
}

// TestSinkRace hammers one MultiSink(JSONL + FlowLog) from concurrent
// workers — the shape concurrent replays produce — and relies on the
// race detector to flag unsynchronised access.
func TestSinkRace(t *testing.T) {
	log := NewFlowLog(64)
	jsonl := NewJSONLSink(io.Discard)
	defer jsonl.Close()
	sink := MultiSink{jsonl, log}
	const workers, per = 8, 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var r FlowRecord
			for i := 0; i < per; i++ {
				r = FlowRecord{ID: int64(w*per + i), Scheme: "Flash", Class: ClassMouse, Outcome: OutcomeDelivered}
				sink.Emit(&r)
			}
		}(w)
	}
	wg.Wait()
	if log.Total() != workers*per {
		t.Fatalf("Total = %d, want %d", log.Total(), workers*per)
	}
}

// TestEmitAllocs pins the flow-record completion path at zero
// allocations per record at steady state.
func TestEmitAllocs(t *testing.T) {
	s := NewJSONLSink(io.Discard)
	defer s.Close()
	// Wait for the background writer to drain a warm-up batch so its
	// encode buffer is fully grown before the measured window
	// (AllocsPerRun counts allocations process-wide).
	for i := 0; i < 16; i++ {
		s.Emit(sampleRecord(int64(i)))
	}
	for s.Count() < 16 {
		time.Sleep(time.Millisecond)
	}
	var r FlowRecord // the emitter's one record, refilled per payment
	allocs := testing.AllocsPerRun(200, func() {
		r = FlowRecord{ID: 99, Scheme: "Flash", Sender: 1, Receiver: 2, Amount: 3.5,
			Class: ClassMouse, Attempts: 1, Outcome: OutcomeDelivered}
		s.Emit(&r)
	})
	if allocs != 0 {
		t.Errorf("emit path allocates %.1f per record, want 0", allocs)
	}
}

func TestRegistryPrometheus(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter(`sim_payments_total{scheme="Flash"}`, "Payments completed.")
	c.Add(5)
	reg.Counter(`sim_payments_total{scheme="SP"}`, "Payments completed.").Add(2)
	g := reg.Gauge("sim_threshold", "Adaptive elephant threshold.")
	g.Set(1.5)
	reg.GaugeFunc("sim_clock_seconds", "Virtual clock.", func() float64 { return 7 })
	h := reg.Histogram(`sim_amount{scheme="Flash"}`, "Payment amounts.", []float64{1, 10})
	h.Observe(0.5)
	h.Observe(5)
	h.Observe(50)

	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	want := `# HELP sim_amount Payment amounts.
# TYPE sim_amount histogram
sim_amount_bucket{scheme="Flash",le="1"} 1
sim_amount_bucket{scheme="Flash",le="10"} 2
sim_amount_bucket{scheme="Flash",le="+Inf"} 3
sim_amount_sum{scheme="Flash"} 55.5
sim_amount_count{scheme="Flash"} 3
# HELP sim_clock_seconds Virtual clock.
# TYPE sim_clock_seconds gauge
sim_clock_seconds 7
# HELP sim_payments_total Payments completed.
# TYPE sim_payments_total counter
sim_payments_total{scheme="Flash"} 5
sim_payments_total{scheme="SP"} 2
# HELP sim_threshold Adaptive elephant threshold.
# TYPE sim_threshold gauge
sim_threshold 1.5
`
	if got := buf.String(); got != want {
		t.Errorf("WritePrometheus mismatch:\ngot:\n%s\nwant:\n%s", got, want)
	}

	// Same instrument back on re-registration.
	if reg.Counter(`sim_payments_total{scheme="Flash"}`, "") != c {
		t.Error("re-registration returned a different counter")
	}
}

func TestRegistryJSONLines(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("a_total", "A.").Add(3)
	reg.Histogram("b_hist", "B.", []float64{1}).Observe(0.5)
	var buf bytes.Buffer
	if err := reg.WriteJSONLines(&buf); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(&buf)
	n := 0
	for sc.Scan() {
		var got map[string]any
		if err := json.Unmarshal(sc.Bytes(), &got); err != nil {
			t.Fatalf("line %d invalid: %v", n, err)
		}
		n++
	}
	if n != 2 {
		t.Errorf("got %d lines, want 2", n)
	}
}

func TestRegistryKindMismatchPanics(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("x", "")
	defer func() {
		if recover() == nil {
			t.Error("expected panic on kind mismatch")
		}
	}()
	reg.Gauge("x", "")
}

func TestServerEndpoints(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("up_total", "Up.").Inc()
	flows := NewFlowLog(8)
	flows.Emit(sampleRecord(1))

	srv, err := NewServer("127.0.0.1:0", reg, flows)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(fmt.Sprintf("http://%s%s", srv.Addr(), path))
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}

	if code, body := get("/metrics"); code != 200 || !strings.Contains(body, "up_total 1") {
		t.Errorf("/metrics: code=%d body=%q", code, body)
	}
	if code, body := get("/metrics.json"); code != 200 || !strings.Contains(body, `"up_total"`) {
		t.Errorf("/metrics.json: code=%d body=%q", code, body)
	}
	if code, body := get("/flows"); code != 200 || !strings.Contains(body, `"id":1`) {
		t.Errorf("/flows: code=%d body=%q", code, body)
	}
	if code, _ := get("/debug/pprof/cmdline"); code != 200 {
		t.Errorf("/debug/pprof/cmdline: code=%d", code)
	}
	if code, _ := get("/nope"); code != 404 {
		t.Errorf("/nope: code=%d, want 404", code)
	}
}

func TestServerFlowsFollow(t *testing.T) {
	flows := NewFlowLog(8)
	srv, err := NewServer("127.0.0.1:0", nil, flows)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	resp, err := http.Get(fmt.Sprintf("http://%s/flows?follow=1", srv.Addr()))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	done := make(chan error, 1)
	go func() {
		rd := bufio.NewReader(resp.Body)
		line, err := rd.ReadString('\n')
		if err != nil {
			done <- err
			return
		}
		if !strings.Contains(line, `"id":77`) {
			done <- fmt.Errorf("unexpected line %q", line)
			return
		}
		done <- nil
	}()

	// Give the handler a moment to subscribe before emitting.
	time.Sleep(50 * time.Millisecond)
	flows.Emit(sampleRecord(77))

	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("follow stream never delivered the record")
	}
}
