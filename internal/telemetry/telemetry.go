// Package telemetry is the repository's flight recorder: structured
// per-payment flow records, a small dependency-free metrics registry
// (counters, gauges, fixed-bucket histograms) with Prometheus-text and
// JSONL exporters, and an HTTP server exposing /metrics, /flows and
// net/http/pprof on the long-lived daemons.
//
// The package is strictly observer-only by design. Nothing in it
// consumes randomness, takes simulation-level locks, or feeds back into
// routing decisions: a harness with every sink enabled must produce
// event-log fingerprints and CLI bytes identical to a run with
// telemetry off (the sim package's equivalence tests pin this). Flow
// records carry *virtual* time in dynamic runs — the emitting harness
// stamps them from its own clock, never from time.Now.
//
// The hot-path contract: a nil Sink costs one branch; a live sink costs
// refilling the emitter's one record plus the sink's Emit. Sink
// implementations must not retain the record after Emit returns — the
// emitter refills it for its next payment — and must be safe for
// concurrent Emit calls, because one sink may serve several emitters.
package telemetry

import "strconv"

// Payment classes stamped into FlowRecord.Class, matching the paper's
// mice/elephant differentiation.
const (
	ClassMouse    = "mouse"
	ClassElephant = "elephant"
)

// Flow outcomes stamped into FlowRecord.Outcome.
const (
	// OutcomeDelivered marks a payment whose full demand committed.
	OutcomeDelivered = "delivered"
	// OutcomeFailed marks a payment undelivered after every attempt
	// (insufficient capacity, no route, or lost hold races).
	OutcomeFailed = "failed"
	// OutcomeSpanAbort marks a payment whose deferred commit aborted
	// because churn closed a held channel mid-span — the HTLC-timeout
	// analogue, and the dynamic engine's churn-invalidation cause.
	OutcomeSpanAbort = "span-abort"
	// OutcomeDeadlineExpired marks a payment whose hold span was torn
	// down at its HTLC deadline before the commit could settle
	// (DynamicOptions.Deadline).
	OutcomeDeadlineExpired = "deadline-expired"
)

// FlowRecord is the flight-recorder entry for one completed payment:
// who paid whom how much, what the routing spent to move it (attempts,
// probe rounds and messages, paths, fees), when it arrived and
// completed in virtual time, and how it ended. One record is emitted
// per payment — not per attempt — after the final attempt settles.
type FlowRecord struct {
	// ID is the workload payment ID.
	ID int64
	// Scheme is the routing scheme that carried the payment.
	Scheme string
	// Sender and Receiver are the payment endpoints.
	Sender, Receiver int64
	// Amount is the payment demand.
	Amount float64
	// Class is ClassMouse or ClassElephant, judged against the metrics
	// threshold in force when the payment completed.
	Class string
	// Attempts is the number of routing attempts made (1 + retries
	// actually used).
	Attempts int
	// ProbeRounds counts distinct Probe operations across all attempts
	// (one per path measured); ProbeMessages counts the messages those
	// probes cost (2·hops each).
	ProbeRounds   int
	ProbeMessages int64
	// CommitMessages counts COMMIT/CONFIRM/REVERSE legs across all
	// attempts.
	CommitMessages int64
	// Paths is the number of paths the final attempt held funds on.
	Paths int
	// Fees is the total fee paid (0 unless delivered).
	Fees float64
	// Arrival and Complete are the payment's virtual arrival and
	// completion instants in seconds. Static replays stamp the trace
	// timestamp into both; real-time harnesses (the TCP testbed) stamp
	// seconds since workload start.
	Arrival, Complete float64
	// ProbeLatency and CommitLatency are the virtual latency the
	// payment's protocol legs were charged, in seconds, split like the
	// message counters: probe round trips vs COMMIT/CONFIRM/REVERSE
	// legs. Zero unless the network carries per-channel RTTs.
	ProbeLatency, CommitLatency float64
	// WallNS is the wall-clock routing time in nanoseconds — observer
	// information only, never part of any deterministic contract. The
	// simulator times its Route calls into it (the benchmark's traced
	// run reads it); the TCP testbed and flashnode time a Route over
	// TCP, round trips included.
	WallNS int64
	// Outcome is OutcomeDelivered, OutcomeFailed, OutcomeSpanAbort or
	// OutcomeDeadlineExpired.
	Outcome string
}

// Sink receives completed flow records. Implementations must be safe
// for concurrent Emit calls and must not retain r after Emit returns:
// the caller owns the record and refills it for its next payment. Copy
// it (a value copy suffices — the struct holds only scalars and
// immutable strings) to keep it.
type Sink interface {
	Emit(r *FlowRecord)
}

// MultiSink fans one record out to several sinks in order.
type MultiSink []Sink

// Emit implements Sink.
func (m MultiSink) Emit(r *FlowRecord) {
	for _, s := range m {
		s.Emit(r)
	}
}

// AppendJSON appends the record as a single-line JSON object to buf and
// returns the extended slice. The field order is fixed and the encoding
// allocation-free once buf has capacity, which is what lets JSONLSink
// emit at zero allocations per record at steady state.
func (r *FlowRecord) AppendJSON(buf []byte) []byte {
	buf = append(buf, `{"id":`...)
	buf = strconv.AppendInt(buf, r.ID, 10)
	buf = append(buf, `,"scheme":`...)
	buf = appendJSONString(buf, r.Scheme)
	buf = append(buf, `,"sender":`...)
	buf = strconv.AppendInt(buf, r.Sender, 10)
	buf = append(buf, `,"receiver":`...)
	buf = strconv.AppendInt(buf, r.Receiver, 10)
	buf = append(buf, `,"amount":`...)
	buf = appendJSONFloat(buf, r.Amount)
	buf = append(buf, `,"class":`...)
	buf = appendJSONString(buf, r.Class)
	buf = append(buf, `,"attempts":`...)
	buf = strconv.AppendInt(buf, int64(r.Attempts), 10)
	buf = append(buf, `,"probeRounds":`...)
	buf = strconv.AppendInt(buf, int64(r.ProbeRounds), 10)
	buf = append(buf, `,"probeMsgs":`...)
	buf = strconv.AppendInt(buf, r.ProbeMessages, 10)
	buf = append(buf, `,"commitMsgs":`...)
	buf = strconv.AppendInt(buf, r.CommitMessages, 10)
	buf = append(buf, `,"paths":`...)
	buf = strconv.AppendInt(buf, int64(r.Paths), 10)
	buf = append(buf, `,"fees":`...)
	buf = appendJSONFloat(buf, r.Fees)
	buf = append(buf, `,"arrival":`...)
	buf = appendJSONFloat(buf, r.Arrival)
	buf = append(buf, `,"complete":`...)
	buf = appendJSONFloat(buf, r.Complete)
	buf = append(buf, `,"probeLat":`...)
	buf = appendJSONFloat(buf, r.ProbeLatency)
	buf = append(buf, `,"commitLat":`...)
	buf = appendJSONFloat(buf, r.CommitLatency)
	buf = append(buf, `,"wallNs":`...)
	buf = strconv.AppendInt(buf, r.WallNS, 10)
	buf = append(buf, `,"outcome":`...)
	buf = appendJSONString(buf, r.Outcome)
	return append(buf, '}')
}

// appendJSONString quotes s. Scheme/class/outcome strings are plain
// identifiers, so the fast path is a bare copy; anything containing a
// character that needs escaping falls back to strconv.AppendQuote.
func appendJSONString(buf []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c == '"' || c == '\\' || c >= 0x7f {
			return strconv.AppendQuote(buf, s)
		}
	}
	buf = append(buf, '"')
	buf = append(buf, s...)
	return append(buf, '"')
}

// appendJSONFloat renders v in Go's shortest-round-trip format; NaN and
// ±Inf (not representable in JSON) render as null.
func appendJSONFloat(buf []byte, v float64) []byte {
	if v != v || v > maxFinite || v < -maxFinite {
		return append(buf, "null"...)
	}
	return strconv.AppendFloat(buf, v, 'g', -1, 64)
}

// maxFinite is math.MaxFloat64, spelled out to keep the hot-path file
// free of a math import for one constant.
const maxFinite = 0x1.fffffffffffffp+1023
