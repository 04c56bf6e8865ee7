// Package route defines the seam between routing algorithms and the
// network they run over: a Session is the sender's handle for one
// payment (probe paths, hold partial payments, commit or abort), and a
// Router is any algorithm that drives a Session to completion.
//
// Both the in-memory simulator (pcn.Tx) and the TCP testbed node
// sessions implement Session, so the Flash router and every baseline run
// unchanged in both environments — mirroring how the paper evaluates the
// same algorithms in simulation (§4) and on the prototype (§5).
package route

import (
	"errors"
	"math"

	"repro/internal/pcn"
	"repro/internal/topo"
)

// Session is one in-flight payment from the sender's point of view.
// Implementations must guarantee atomicity: after Commit every held
// partial payment is applied; after Abort none is. It declares only what
// routers call: accounting (messages, fees, paths used) lives on the
// concrete sessions, which harnesses hold.
//
// Concurrency contract: a Session belongs to exactly one goroutine for
// its lifetime — no Session method is called concurrently. The network
// behind the session is shared by every session open on it, and each
// operation must be atomic against theirs: pcn.Tx sessions interleave
// on the one goroutine that owns their network (one goroutine per run),
// and a TCP node applies each message under its own locks.
type Session interface {
	// Graph is the sender's locally available topology (§3.1): full
	// connectivity, no balance information.
	Graph() *topo.Graph
	// Sender and Receiver are the payment endpoints; Demand its amount.
	Sender() topo.NodeID
	Receiver() topo.NodeID
	Demand() float64

	// Probe measures the current available balance and fee schedule of
	// every hop along path, costing messages proportional to path length.
	// It does not retain path. The returned slice is read-only and stays
	// valid for the session's life.
	Probe(path []topo.NodeID) ([]pcn.HopInfo, error)
	// LocalBalance is balance knowledge a node has about its own adjacent
	// channels, free of message cost (used by hop-by-hop schemes).
	LocalBalance(u, v topo.NodeID) float64

	// Hold reserves amount on every hop of path, or reserves nothing and
	// returns an error. It does not retain path, so a caller may pass a
	// search buffer it reuses afterwards. HeldTotal is the sum of active
	// reservations.
	Hold(path []topo.NodeID, amount float64) error
	HeldTotal() float64

	// Commit applies all holds atomically; Abort releases them. Exactly
	// one of the two must be called, once.
	Commit() error
	Abort() error
}

// Compile-time check: the in-memory transaction implements Session.
var _ Session = (*pcn.Tx)(nil)

// LatencyMeter is optionally implemented by Sessions that charge
// virtual latency for protocol legs. A probe pipeline that measures
// several candidate paths per round uses it to correct the charge
// after each round: Probe bills every path its full RTT sum, but a
// round of probes that travel together only advances virtual time by
// its slowest candidate, so the pipeline credits Σ(round) − max(round)
// back. All quantities are integer nanoseconds. Absence of the
// interface (e.g. the TCP testbed session, which charges no virtual
// latency) simply leaves probe charges uncorrected.
type LatencyMeter interface {
	// PathLatencyNanos returns the virtual RTT sum along hop path p —
	// the latency one Probe of it is charged.
	PathLatencyNanos(p topo.Path) int64
	// CreditProbeLatency subtracts nanos from the session's charged
	// probe latency.
	CreditProbeLatency(nanos int64)
}

// Compile-time check: the in-memory transaction meters virtual
// latency.
var _ LatencyMeter = (*pcn.Tx)(nil)

// Router is a routing algorithm. Route must finish the session: Commit
// when the full demand has been held (returning nil) or Abort otherwise
// (returning a non-nil reason). Routers may keep per-sender state (e.g.
// Flash's mice routing tables) across calls.
//
// Route must be safe to call from multiple goroutines with different
// sessions: the concurrent simulator drives one router instance from N
// payment workers at once. Internal state (routing tables, counters,
// RNGs) must be synchronized; per-sender state should be sharded so
// payments from different senders do not contend (core.Flash locks one
// table per sender).
type Router interface {
	Name() string
	Route(s Session) error
}

// Routing failure reasons. Routers wrap or return these so callers can
// distinguish "no path exists" from "paths exist but lack balance".
var (
	ErrNoRoute      = errors.New("route: no path between sender and receiver")
	ErrInsufficient = errors.New("route: insufficient capacity for demand")
)

// MinAvailable returns the bottleneck (minimum available balance) of a
// probed path, or 0 for an empty probe result.
func MinAvailable(info []pcn.HopInfo) float64 {
	if len(info) == 0 {
		return 0
	}
	minAvail := math.Inf(1)
	for _, h := range info {
		if h.Available < minAvail {
			minAvail = h.Available
		}
	}
	return minAvail
}

// Epsilon is the tolerance used when comparing held totals against
// demands: a payment counts as fully funded when it is within Epsilon.
const Epsilon = 1e-6

// Probe probes hop path p on s. The in-memory session (a concrete
// *pcn.Tx) takes the hop form, which reads each hop's channel from p
// instead of looking it up; any other session — the TCP node session, a
// decorator around either — gets s.Probe with p's nodes, so whatever it
// adds to a probe (a wire message, a span) sees every one. The hop form
// is on no Session method and no optional interface on purpose: a
// decorator embedding *pcn.Tx would promote it past its own Probe.
func Probe(s Session, p topo.Path) ([]pcn.HopInfo, error) {
	if tx, ok := s.(*pcn.Tx); ok {
		return tx.ProbeHops(p)
	}
	return s.Probe(p.Nodes())
}

// Hold holds amount on hop path p on s, dispatching as Probe does.
func Hold(s Session, p topo.Path, amount float64) error {
	if tx, ok := s.(*pcn.Tx); ok {
		return tx.HoldHops(p, amount)
	}
	return s.Hold(p.Nodes(), amount)
}

// HoldUpTo tries to hold want on hop path p; if the hold fails, whatever
// the reason (insufficient balance, a closed channel, a timed-out round
// trip), it probes the path once (paying the message cost) and retries
// with the measured bottleneck, holding whatever the path can actually
// carry, up to want. It returns the amount held. This is the
// "trial-and-error" primitive of Flash's mice routing (§3.3), also used
// to recover when concurrent holds shrank a previously probed path.
func HoldUpTo(s Session, p topo.Path, want float64) float64 {
	if want <= Epsilon {
		return 0
	}
	if err := Hold(s, p, want); err == nil {
		return want
	}
	info, err := Probe(s, p)
	if err != nil {
		return 0
	}
	avail := MinAvailable(info)
	amount := math.Min(want, avail)
	if amount <= Epsilon {
		return 0
	}
	if err := Hold(s, p, amount); err != nil {
		return 0
	}
	return amount
}

// Finish commits the session when its held total covers the demand and
// aborts it otherwise, translating the outcome into Route's contract.
// reason is returned on abort (defaulting to ErrInsufficient).
func Finish(s Session, reason error) error {
	if s.HeldTotal() >= s.Demand()-Epsilon {
		if err := s.Commit(); err != nil {
			return err
		}
		return nil
	}
	if err := s.Abort(); err != nil {
		return err
	}
	if reason == nil {
		reason = ErrInsufficient
	}
	return reason
}
