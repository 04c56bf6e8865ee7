package node

import (
	"errors"
	"fmt"
	"math"
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
//
// A Session keeps what it must remember in two append-only arenas, each
// backed by an inline array until it outgrows it: the paths of its
// holds, back to back, and every Probe result. A round trip's request
// and reply live in the node's pooled call slots, so a payment over
// short paths allocates nothing beyond the Session. The probe-result
// arena grows by starting a new chunk and never moves or overwrites what
// it has handed out, so a Probe result is read-only and valid for the
// session's life. Neither Probe nor Hold retains the path it is given.
type Session struct {
	n        *Node
	receiver topo.NodeID
	finished bool
	demand   float64

	holds []sessHold

	probeMsgs  int
	probeOps   int
	commitMsgs int
	netWait    time.Duration

	// The inline arrays are sized so the Session fits a 512-byte
	// allocation.
	paths []topo.NodeID // every hold's path, back to back
	infos []pcn.HopInfo // the current chunk of Probe results

	holdsInline [4]sessHold
	pathsInline [16]topo.NodeID
	infosInline [5]pcn.HopInfo
}

// sessHold is one partial payment the session holds: its path is
// paths[off : off+n].
type sessHold struct {
	off, n int32
	amount float64
}

// infosChunk is the least capacity of a probe-result chunk started once
// the inline array is full.
const infosChunk = 64

// NewSession opens a payment session from this node to receiver.
func (n *Node) NewSession(receiver topo.NodeID, demand float64) (*Session, error) {
	if !(demand > 0) || math.IsInf(demand, 1) {
		return nil, fmt.Errorf("node: demand must be positive and finite, got %v", demand)
	}
	if receiver == n.id {
		return nil, fmt.Errorf("node: cannot pay self (node %d)", n.id)
	}
	s := &Session{n: n, receiver: receiver, demand: demand}
	s.holds = s.holdsInline[:0]
	s.paths = s.pathsInline[:0]
	s.infos = s.infosInline[:0]
	return s, nil
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

// roundTrip sends a new transaction's request of type typ over path,
// built in a call slot, and waits for its terminal reply, accounting the
// wait towards NetworkWait. On success the reply is in the returned
// slot's reply, and the caller hands the slot back with putCall once it
// has read it; on error the slot is back already.
func (s *Session) roundTrip(typ wire.Type, path []topo.NodeID, amount float64) (*call, error) {
	n := s.n
	c := n.getCall()
	req := &c.req
	req.TransID, req.Type, req.Pos, req.Commit = n.newTransID(), typ, 0, amount
	req.Path = append(req.Path[:0], path...)
	req.Capacity, req.ReverseCap, req.FeeRate = req.Capacity[:0], req.ReverseCap[:0], req.FeeRate[:0]
	id := req.TransID
	n.await(c)
	start := time.Now()
	n.dispatch(req)
	c.timer.Reset(n.timeout)
	select {
	case <-c.done:
		c.timer.Stop()
		s.netWait += time.Since(start)
		return c, nil
	case <-c.timer.C:
		s.netWait += time.Since(start)
		if !n.cancel(id) {
			<-c.done // a delivery took the slot first: let it finish writing
		}
		n.putCall(c)
		return nil, fmt.Errorf("%w (trans %d, type %v)", ErrTimeout, id, typ)
	}
}

// Probe implements route.Session: a PROBE/PROBE_ACK round trip,
// costing 2·hops messages. The result is appended to the session's
// probe-result arena.
func (s *Session) Probe(path []topo.NodeID) ([]pcn.HopInfo, error) {
	if s.finished {
		return nil, pcn.ErrFinished
	}
	if err := s.validPath(path); err != nil {
		return nil, err
	}
	c, err := s.roundTrip(wire.TypeProbe, path, 0)
	if err != nil {
		return nil, err
	}
	defer s.n.putCall(c)
	reply := &c.reply
	hops := len(path) - 1
	s.probeMsgs += 2 * hops
	s.probeOps++
	if reply.Type != wire.TypeProbeAck {
		return nil, fmt.Errorf("node: unexpected reply %v to PROBE", reply.Type)
	}
	if len(reply.Capacity) != hops || len(reply.FeeRate) != hops {
		return nil, fmt.Errorf("node: probe returned %d capacities, %d fee rates for %d hops", len(reply.Capacity), len(reply.FeeRate), hops)
	}
	m := len(s.infos)
	if m+hops > cap(s.infos) {
		// Start a new chunk rather than grow this one: earlier results
		// stay where their callers hold them.
		s.infos = make([]pcn.HopInfo, 0, max(hops, 2*cap(s.infos), infosChunk))
		m = 0
	}
	s.infos = s.infos[:m+hops]
	info := s.infos[m : m+hops : m+hops]
	for i := range info {
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
	if !(amount > 0) || math.IsInf(amount, 1) {
		return fmt.Errorf("node: hold amount must be positive and finite, got %v", amount)
	}
	if err := s.validPath(path); err != nil {
		return err
	}
	c, err := s.roundTrip(wire.TypeCommit, path, amount)
	if err != nil {
		return err
	}
	typ := c.reply.Type
	s.n.putCall(c)
	s.commitMsgs += 2 * (len(path) - 1)
	switch typ {
	case wire.TypeCommitAck:
		s.holds = append(s.holds, sessHold{off: int32(len(s.paths)), n: int32(len(path)), amount: amount})
		s.paths = append(s.paths, path...)
		return nil
	case wire.TypeCommitNack:
		return pcn.ErrInsufficient
	default:
		return fmt.Errorf("node: unexpected reply %v to COMMIT", typ)
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
	if err := s.settle(wire.TypeConfirm); err != nil {
		return fmt.Errorf("node: confirm failed: %w", err)
	}
	return nil
}

// Abort implements route.Session: REVERSE every held sub-payment.
func (s *Session) Abort() error {
	if s.finished {
		return pcn.ErrFinished
	}
	if err := s.settle(wire.TypeReverse); err != nil {
		return fmt.Errorf("node: reverse failed: %w", err)
	}
	return nil
}

// settle sends every held sub-payment a round trip of type typ, CONFIRM
// or REVERSE, in hold order, and finishes the session once all are
// acknowledged.
func (s *Session) settle(typ wire.Type) error {
	for _, h := range s.holds {
		c, err := s.roundTrip(typ, s.paths[h.off:h.off+h.n], h.amount)
		if err != nil {
			return err
		}
		s.n.putCall(c)
		s.commitMsgs += 2 * (int(h.n) - 1)
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
