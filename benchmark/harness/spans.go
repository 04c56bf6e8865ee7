package harness

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"

	"repro/internal/node"
	"repro/internal/pcn"
	"repro/internal/route"
	"repro/internal/topo"
)

// spanKind names the layer boundary a span was recorded at.
type spanKind uint8

const (
	spanPayment spanKind = iota // one payment: session open → terminal
	spanRoute                   // core: the Route call
	spanProbe                   // pcn / node: Session.Probe
	spanHold                    // pcn / node: Session.Hold
	spanCommit                  // pcn / node: Session.Commit
	spanAbort                   // pcn / node: Session.Abort
	numSpanKinds
)

var spanNames = [numSpanKinds]string{"payment", "core.route", "session.probe", "session.hold", "session.commit", "session.abort"}

// noParent marks a root span.
const noParent = -1

// span is one timed interval. Spans of one payment share Payment;
// Parent is the index of the span that caused this one.
type span struct {
	Kind    spanKind
	Payment int32
	Parent  int32
	Failed  bool  // the operation returned an error
	Start   int64 // ns since the tracer started
	End     int64
}

// tracer keeps spans in a preallocated slice; nothing is written out
// until the run ends.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer(capacity int) *tracer {
	return &tracer{t0: time.Now(), spans: make([]span, 0, capacity)}
}

// begin opens a span and returns its index.
func (t *tracer) begin(kind spanKind, payment, parent int) int {
	t.spans = append(t.spans, span{Kind: kind, Payment: int32(payment), Parent: int32(parent), Start: int64(time.Since(t.t0))})
	return len(t.spans) - 1
}

// end closes span i.
func (t *tracer) end(i int) { t.spans[i].End = int64(time.Since(t.t0)) }

// fail closes span i and marks its operation failed when err != nil.
func (t *tracer) fail(i int, err error) {
	t.end(i)
	t.spans[i].Failed = err != nil
}

// selfTimes returns, per span, its duration minus the part its child
// spans cover. Children never overlap here (one goroutine drives every
// session), so that part is the sum of their durations.
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] += s.End - s.Start
		if s.Parent != noParent {
			self[s.Parent] -= s.End - s.Start
		}
	}
	return self
}

// spanSummary is what the layer metrics read from a traced replay.
type spanSummary struct {
	selfNS [numSpanKinds]int64 // summed self time per kind
	calls  [numSpanKinds]int
	failed [numSpanKinds]int
}

func summarize(spans []span) spanSummary {
	var sum spanSummary
	self := selfTimes(spans)
	for i, s := range spans {
		sum.selfNS[s.Kind] += self[i]
		sum.calls[s.Kind]++
		if s.Failed {
			sum.failed[s.Kind]++
		}
	}
	return sum
}

// routeNS is the total time inside Route calls: core's self time plus
// every session operation beneath it.
func (s spanSummary) routeNS() int64 {
	total := int64(0)
	for k := spanRoute; k < numSpanKinds; k++ {
		total += s.selfNS[k]
	}
	return total
}

// writeSpans writes the spans as JSON to dir/trace-<workload>.json.
func writeSpans(dir, workload string, spans []span) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	type jsonSpan struct {
		Name    string `json:"name"`
		Payment int32  `json:"payment"`
		Parent  int32  `json:"parent"`
		StartNS int64  `json:"start_ns"`
		EndNS   int64  `json:"end_ns"`
		Failed  bool   `json:"failed,omitempty"`
	}
	out := make([]jsonSpan, len(spans))
	for i, s := range spans {
		out[i] = jsonSpan{spanNames[s.Kind], s.Payment, s.Parent, s.Start, s.End, s.Failed}
	}
	f, err := os.Create(filepath.Join(dir, "trace-"+workload+".json"))
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(out); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Both decorators still are sessions a router can drive.
var (
	_ route.Session = (*tracedTx)(nil)
	_ route.Session = (*tracedSession)(nil)
)

// tracedTx records a span around every operation of an in-memory
// session. Embedding the concrete *pcn.Tx keeps its optional
// interfaces (RandSource, ParallelProber, LatencyMeter) visible to the
// router, so decorating does not change how it routes.
type tracedTx struct {
	*pcn.Tx
	tr              *tracer
	payment, parent int
}

func (s *tracedTx) Probe(path []topo.NodeID) ([]pcn.HopInfo, error) {
	i := s.tr.begin(spanProbe, s.payment, s.parent)
	info, err := s.Tx.Probe(path)
	s.tr.fail(i, err)
	return info, err
}

func (s *tracedTx) Hold(path []topo.NodeID, amount float64) error {
	i := s.tr.begin(spanHold, s.payment, s.parent)
	err := s.Tx.Hold(path, amount)
	s.tr.fail(i, err)
	return err
}

func (s *tracedTx) Commit() error {
	i := s.tr.begin(spanCommit, s.payment, s.parent)
	err := s.Tx.Commit()
	s.tr.fail(i, err)
	return err
}

func (s *tracedTx) Abort() error {
	i := s.tr.begin(spanAbort, s.payment, s.parent)
	err := s.Tx.Abort()
	s.tr.fail(i, err)
	return err
}

// tracedSession is tracedTx for the TCP node session.
type tracedSession struct {
	*node.Session
	tr              *tracer
	payment, parent int
}

func (s *tracedSession) Probe(path []topo.NodeID) ([]pcn.HopInfo, error) {
	i := s.tr.begin(spanProbe, s.payment, s.parent)
	info, err := s.Session.Probe(path)
	s.tr.fail(i, err)
	return info, err
}

func (s *tracedSession) Hold(path []topo.NodeID, amount float64) error {
	i := s.tr.begin(spanHold, s.payment, s.parent)
	err := s.Session.Hold(path, amount)
	s.tr.fail(i, err)
	return err
}

func (s *tracedSession) Commit() error {
	i := s.tr.begin(spanCommit, s.payment, s.parent)
	err := s.Session.Commit()
	s.tr.fail(i, err)
	return err
}

func (s *tracedSession) Abort() error {
	i := s.tr.begin(spanAbort, s.payment, s.parent)
	err := s.Session.Abort()
	s.tr.fail(i, err)
	return err
}
