package node

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/pcn"
	"repro/internal/route"
	"repro/internal/topo"
	"repro/internal/wire"
)

// Session is the sender-side handle for one payment on the TCP network.
// It implements route.Session, so the identical router code that drives
// the simulator drives the testbed — matching the paper, which evaluates
// the same algorithms in both (§4, §5).
type Session struct {
	n        *Node
	receiver topo.NodeID
	demand   float64

	holds    []sessHold
	finished bool

	probeMsgs  int
	probeOps   int
	commitMsgs int
	netWait    time.Duration
}

type sessHold struct {
	path   []topo.NodeID
	amount float64
}

// NewSession opens a payment session from this node to receiver.
func (n *Node) NewSession(receiver topo.NodeID, demand float64) (*Session, error) {
	if demand <= 0 {
		return nil, fmt.Errorf("node: demand must be positive, got %v", demand)
	}
	if receiver == n.id {
		return nil, fmt.Errorf("node: cannot pay self (node %d)", n.id)
	}
	return &Session{n: n, receiver: receiver, demand: demand}, nil
}

// Compile-time checks that Session satisfies the routing seam and
// counts probe rounds for telemetry.
var (
	_ route.Session      = (*Session)(nil)
	_ route.ProbeCounter = (*Session)(nil)
)

// Graph implements route.Session.
func (s *Session) Graph() *topo.Graph { return s.n.graph }

// Sender implements route.Session.
func (s *Session) Sender() topo.NodeID { return s.n.id }

// Receiver implements route.Session.
func (s *Session) Receiver() topo.NodeID { return s.receiver }

// Demand implements route.Session.
func (s *Session) Demand() float64 { return s.demand }

// validPath mirrors the simulator's validation.
func (s *Session) validPath(path []topo.NodeID) error {
	if len(path) < 2 || path[0] != s.n.id || path[len(path)-1] != s.receiver {
		return pcn.ErrBadPath
	}
	for i := 0; i+1 < len(path); i++ {
		if !s.n.graph.HasChannel(path[i], path[i+1]) {
			return fmt.Errorf("%w: no channel %d-%d", pcn.ErrBadPath, path[i], path[i+1])
		}
	}
	return nil
}

// roundTrip injects a forward message and waits for its terminal reply,
// accounting the wait towards NetworkWait.
func (s *Session) roundTrip(msg *wire.Message) (*wire.Message, error) {
	ch := s.n.await(msg.TransID)
	start := time.Now()
	s.n.dispatch(msg)
	timer := time.NewTimer(s.n.timeout)
	defer timer.Stop()
	select {
	case reply := <-ch:
		s.netWait += time.Since(start)
		return reply, nil
	case <-timer.C:
		s.netWait += time.Since(start)
		s.n.cancel(msg.TransID)
		return nil, fmt.Errorf("%w (trans %d, type %v)", ErrTimeout, msg.TransID, msg.Type)
	}
}

// Probe implements route.Session: a PROBE/PROBE_ACK round trip,
// costing 2·hops messages.
func (s *Session) Probe(path []topo.NodeID) ([]pcn.HopInfo, error) {
	if s.finished {
		return nil, pcn.ErrFinished
	}
	if err := s.validPath(path); err != nil {
		return nil, err
	}
	msg := &wire.Message{
		TransID: s.n.newTransID(),
		Type:    wire.TypeProbe,
		Path:    append([]topo.NodeID(nil), path...),
	}
	reply, err := s.roundTrip(msg)
	if err != nil {
		return nil, err
	}
	hops := len(path) - 1
	s.probeMsgs += 2 * hops
	s.probeOps++
	if reply.Type != wire.TypeProbeAck {
		return nil, fmt.Errorf("node: unexpected reply %v to PROBE", reply.Type)
	}
	if len(reply.Capacity) != hops || len(reply.FeeRate) != hops {
		return nil, fmt.Errorf("node: probe returned %d capacities, %d fee rates for %d hops", len(reply.Capacity), len(reply.FeeRate), hops)
	}
	info := make([]pcn.HopInfo, hops)
	for i := 0; i < hops; i++ {
		info[i] = pcn.HopInfo{
			Available: reply.Capacity[i],
			Fee:       pcn.FeeSchedule{Rate: reply.FeeRate[i]},
		}
		if len(reply.ReverseCap) == hops {
			info[i].ReverseAvailable = reply.ReverseCap[i]
		}
	}
	return info, nil
}

// LocalBalance implements route.Session: a node knows only its own
// adjacent channels. (The paper's testbed runs Flash, Spider and SP —
// hop-by-hop schemes like SpeedyMurmurs would need per-hop forwarding
// state this prototype does not model, exactly as in the paper.)
func (s *Session) LocalBalance(u, v topo.NodeID) float64 {
	if u != s.n.id {
		return 0
	}
	out, _ := s.n.Balances(v)
	return out
}

// Hold implements route.Session: the COMMIT phase over path. On
// COMMIT_NACK nothing stays reserved (upstream hops rolled back as the
// NACK travelled) and pcn.ErrInsufficient is returned.
func (s *Session) Hold(path []topo.NodeID, amount float64) error {
	if s.finished {
		return pcn.ErrFinished
	}
	if amount <= 0 {
		return fmt.Errorf("node: hold amount must be positive, got %v", amount)
	}
	if err := s.validPath(path); err != nil {
		return err
	}
	msg := &wire.Message{
		TransID: s.n.newTransID(),
		Type:    wire.TypeCommit,
		Path:    append([]topo.NodeID(nil), path...),
		Commit:  amount,
	}
	reply, err := s.roundTrip(msg)
	if err != nil {
		return err
	}
	s.commitMsgs += 2 * (len(path) - 1)
	switch reply.Type {
	case wire.TypeCommitAck:
		s.holds = append(s.holds, sessHold{
			path:   append([]topo.NodeID(nil), path...),
			amount: amount,
		})
		return nil
	case wire.TypeCommitNack:
		return pcn.ErrInsufficient
	default:
		return fmt.Errorf("node: unexpected reply %v to COMMIT", reply.Type)
	}
}

// HeldTotal implements route.Session.
func (s *Session) HeldTotal() float64 {
	total := 0.0
	for _, h := range s.holds {
		total += h.amount
	}
	return total
}

// Commit implements route.Session: CONFIRM every held sub-payment and
// wait for the CONFIRM_ACKs that settle reverse balances.
func (s *Session) Commit() error {
	if s.finished {
		return pcn.ErrFinished
	}
	if len(s.holds) == 0 {
		return errors.New("node: nothing held to commit")
	}
	for _, h := range s.holds {
		msg := &wire.Message{
			TransID: s.n.newTransID(),
			Type:    wire.TypeConfirm,
			Path:    append([]topo.NodeID(nil), h.path...),
			Commit:  h.amount,
		}
		if _, err := s.roundTrip(msg); err != nil {
			return fmt.Errorf("node: confirm failed: %w", err)
		}
		s.commitMsgs += 2 * (len(h.path) - 1)
	}
	s.finished = true
	return nil
}

// Abort implements route.Session: REVERSE every held sub-payment.
func (s *Session) Abort() error {
	if s.finished {
		return pcn.ErrFinished
	}
	for _, h := range s.holds {
		msg := &wire.Message{
			TransID: s.n.newTransID(),
			Type:    wire.TypeReverse,
			Path:    append([]topo.NodeID(nil), h.path...),
			Commit:  h.amount,
		}
		if _, err := s.roundTrip(msg); err != nil {
			return fmt.Errorf("node: reverse failed: %w", err)
		}
		s.commitMsgs += 2 * (len(h.path) - 1)
	}
	s.finished = true
	return nil
}

// Finished reports whether the session was committed or aborted.
func (s *Session) Finished() bool { return s.finished }

// ProbeMessages implements route.Session.
func (s *Session) ProbeMessages() int { return s.probeMsgs }

// ProbeOps implements route.ProbeCounter: distinct Probe round trips,
// as opposed to the per-hop messages they cost.
func (s *Session) ProbeOps() int { return s.probeOps }

// CommitMessages implements route.Session.
func (s *Session) CommitMessages() int { return s.commitMsgs }

// FeesPaid implements route.Session. It is always 0: the testbed does
// not evaluate fees (the paper's §5 metrics are volume, ratio and
// delay), so no hop's fee is charged or accounted.
func (s *Session) FeesPaid() float64 { return 0 }

// PathsUsed implements route.Session.
func (s *Session) PathsUsed() int { return len(s.holds) }

// NetworkWait returns the total time this session spent blocked on
// protocol round trips. Subtracting it from wall time yields the
// paper's processing-delay metric.
func (s *Session) NetworkWait() time.Duration { return s.netWait }
