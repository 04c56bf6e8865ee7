package telemetry

import (
	"io"
	"sync"
)

// JSONLSink writes one JSON line per flow record to an io.Writer.
// Serialisation happens off the payment path: Emit copies the record
// into a double-buffered batch under a short mutex (no encoding, no
// I/O, and — at steady state — no allocation; see chunkCap), and a
// single background goroutine swaps the batch out, encodes into a
// reused buffer, and writes in emission order. Safe for concurrent
// Emit calls. Write errors are sticky — the first one is kept, later
// records are dropped — so a full disk surfaces once via Err instead
// of spamming. Close drains everything accepted so far, stops the
// writer, and returns the sticky error; callers that hand the sink a
// buffered writer must Close before flushing it (the background
// goroutine writes until then).
type JSONLSink struct {
	w io.Writer

	mu     sync.Mutex
	active []FlowRecord // producer side of the double buffer
	spare  []FlowRecord // writer side, swapped with active when drained
	closed bool
	err    error
	n      uint64 // records written

	wake chan struct{} // 1-buffered writer doorbell; signals coalesce
	done chan struct{}
}

// chunkCap pre-sizes both batch buffers so a bounded emit backlog
// never grows them: the hot path stays allocation-free unless the
// writer falls more than chunkCap records behind (then append growth
// amortises).
const chunkCap = 512

// NewJSONLSink wraps w in a JSONL flow sink and starts its writer
// goroutine; call Close to stop it and drain pending records.
func NewJSONLSink(w io.Writer) *JSONLSink {
	s := &JSONLSink{
		w:      w,
		active: make([]FlowRecord, 0, chunkCap),
		spare:  make([]FlowRecord, 0, chunkCap),
		wake:   make(chan struct{}, 1),
		done:   make(chan struct{}),
	}
	go s.run()
	return s
}

// Emit implements Sink: the record is copied into the pending batch
// and written asynchronously. Records emitted after Close, or after a
// write error, are dropped.
func (s *JSONLSink) Emit(r *FlowRecord) {
	s.mu.Lock()
	if s.closed || s.err != nil {
		s.mu.Unlock()
		return
	}
	s.active = append(s.active, *r)
	s.mu.Unlock()
	select {
	case s.wake <- struct{}{}:
	default:
	}
}

// run is the writer goroutine: it swaps out the pending batch and
// streams it, reusing one encode buffer across all records.
func (s *JSONLSink) run() {
	defer close(s.done)
	var buf []byte
	for {
		s.mu.Lock()
		for len(s.active) == 0 {
			if s.closed {
				s.mu.Unlock()
				return
			}
			s.mu.Unlock()
			<-s.wake
			s.mu.Lock()
		}
		batch := s.active
		s.active = s.spare[:0]
		s.mu.Unlock()

		var (
			written int
			werr    error
		)
		for i := range batch {
			buf = batch[i].AppendJSON(buf[:0])
			buf = append(buf, '\n')
			if _, werr = s.w.Write(buf); werr != nil {
				break
			}
			written++
		}

		s.mu.Lock()
		s.spare = batch[:0]
		s.n += uint64(written)
		if werr != nil && s.err == nil {
			s.err = werr
		}
		s.mu.Unlock()
	}
}

// Close drains the records accepted so far, stops the writer
// goroutine, and returns the sticky write error, if any. Safe to call
// more than once.
func (s *JSONLSink) Close() error {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	select {
	case s.wake <- struct{}{}:
	default:
	}
	<-s.done
	return s.Err()
}

// Count returns the number of records successfully written so far.
// Only after Close does it cover every emitted record.
//
//flashvet:allow testonly/unused the observer tests of telemetry and sim count written records with it
func (s *JSONLSink) Count() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.n
}

// Err returns the first write error, if any.
func (s *JSONLSink) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// FlowLog is an in-memory flight-recorder ring: it keeps the most
// recent records (by value, so the emitter may refill its own) and
// fans live records out to subscribers — the sink behind a daemon's
// /flows endpoint. Safe for concurrent use.
type FlowLog struct {
	mu    sync.Mutex
	buf   []FlowRecord
	start int // index of the oldest record
	count int // records currently buffered
	total uint64
	subs  map[chan FlowRecord]struct{}
}

// NewFlowLog returns a ring holding up to capacity records (minimum 1).
func NewFlowLog(capacity int) *FlowLog {
	if capacity < 1 {
		capacity = 1
	}
	return &FlowLog{
		buf:  make([]FlowRecord, capacity),
		subs: make(map[chan FlowRecord]struct{}),
	}
}

// Emit implements Sink: the record is copied into the ring and offered
// to every subscriber without blocking (a slow subscriber misses
// records rather than stalling the payment path).
func (l *FlowLog) Emit(r *FlowRecord) {
	rec := *r
	l.mu.Lock()
	idx := (l.start + l.count) % len(l.buf)
	if l.count == len(l.buf) {
		l.start = (l.start + 1) % len(l.buf)
	} else {
		l.count++
	}
	l.buf[idx] = rec
	l.total++
	for ch := range l.subs {
		select {
		case ch <- rec:
		default:
		}
	}
	l.mu.Unlock()
}

// Snapshot returns the buffered records, oldest first.
func (l *FlowLog) Snapshot() []FlowRecord {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]FlowRecord, l.count)
	for i := 0; i < l.count; i++ {
		out[i] = l.buf[(l.start+i)%len(l.buf)]
	}
	return out
}

// Total returns the number of records ever emitted (including those the
// ring has since evicted).
//
//flashvet:allow testonly/unused the observer tests of telemetry, sim and testbed check every payment reached the log with it
func (l *FlowLog) Total() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.total
}

// subscribe registers a live-record channel with the given buffer. The
// caller must unsubscribe when done.
func (l *FlowLog) subscribe(buffer int) chan FlowRecord {
	ch := make(chan FlowRecord, buffer)
	l.mu.Lock()
	l.subs[ch] = struct{}{}
	l.mu.Unlock()
	return ch
}

// unsubscribe removes a channel registered by subscribe.
func (l *FlowLog) unsubscribe(ch chan FlowRecord) {
	l.mu.Lock()
	delete(l.subs, ch)
	l.mu.Unlock()
}
