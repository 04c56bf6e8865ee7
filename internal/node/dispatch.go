package node

import (
	"slices"

	"repro/internal/wire"
)

// dispatch processes one protocol message arriving at (or injected
// into) this node. It implements the per-hop behaviour of §5.1.
//
// Ownership: msg belongs to the caller — a readLoop decodes the next
// frame into it as soon as dispatch returns, and a session reuses its
// call slot's request for a later round trip. Handlers may rewrite it in
// place (append to its vectors, reverse its path, change its type) and
// send it on, but must not retain msg or any of its slices past return;
// deliver, the one hand-off to another goroutine, copies it into the
// waiting session's call slot.
func (n *Node) dispatch(msg *wire.Message) {
	if msg.Current() != n.id {
		return // misrouted frame; drop
	}
	switch msg.Type {
	case wire.TypeProbe:
		n.handleProbe(msg)
	case wire.TypeCommit:
		n.handleCommit(msg)
	case wire.TypeConfirm:
		n.handleConfirm(msg)
	case wire.TypeReverse:
		n.handleReverse(msg)
	case wire.TypeProbeAck, wire.TypeCommitAck:
		n.relayOrDeliver(msg)
	case wire.TypeCommitNack:
		n.handleCommitNack(msg)
	case wire.TypeConfirmAck:
		n.handleConfirmAck(msg)
	case wire.TypeReverseAck:
		n.relayOrDeliver(msg)
	}
}

// relayOrDeliver forwards a pure-relay message, or hands it to the
// waiting session at the end of its (reversed) path.
func (n *Node) relayOrDeliver(msg *wire.Message) {
	if msg.AtEnd() {
		n.deliver(msg)
		return
	}
	n.forward(msg)
}

// turnAround converts a forward message, in place, into its
// acknowledgement type with the path reversed. The ack starts at this
// node (Pos 0) and is immediately forwarded.
func (n *Node) turnAround(msg *wire.Message, ackType wire.Type) {
	msg.Type = ackType
	slices.Reverse(msg.Path)
	msg.Pos = 0
	if len(msg.Path) == 1 {
		n.deliver(msg)
		return
	}
	n.forward(msg)
}

// handleProbe appends this node's view of its outgoing hop and
// forwards; at the receiver it turns into PROBE_ACK ("the intermediate
// nodes append the Capacity field in the message with their current
// balance; to return the probed information, the receiver modifies the
// message type to PROBE_ACK, replaces the Path field with the reversed
// version of the forward path, and sends it back").
func (n *Node) handleProbe(msg *wire.Message) {
	if msg.AtEnd() {
		n.turnAround(msg, wire.TypeProbeAck)
		return
	}
	next := msg.Next()
	n.mu.Lock()
	cs := n.chans[next]
	if cs != nil {
		msg.Capacity = append(msg.Capacity, cs.out)
		msg.ReverseCap = append(msg.ReverseCap, cs.in)
		msg.FeeRate = append(msg.FeeRate, cs.feeOut.Rate)
	} else {
		msg.Capacity = append(msg.Capacity, 0)
		msg.ReverseCap = append(msg.ReverseCap, 0)
		msg.FeeRate = append(msg.FeeRate, 0)
	}
	n.mu.Unlock()
	n.forward(msg)
}

// handleCommit is phase 1 at one hop: mirror the upstream deduction,
// then reserve the outgoing balance and forward — or NACK backwards,
// rolling back as the NACK returns ("an intermediate node determines if
// its current balance can handle this sub-payment; if yes, it decreases
// its balance ... and forwards").
func (n *Node) handleCommit(msg *wire.Message) {
	amount := msg.Commit
	prev := msg.Prev()

	n.mu.Lock()
	// Mirror the upstream channel: the previous hop deducted its out
	// balance towards us; keep our copy of that direction in sync.
	if prev >= 0 {
		if cs := n.chans[prev]; cs != nil {
			cs.in -= amount
		}
	}
	if msg.AtEnd() {
		n.mu.Unlock()
		n.turnAround(msg, wire.TypeCommitAck)
		return
	}
	next := msg.Next()
	cs := n.chans[next]
	if cs == nil || cs.out < amount-balanceEpsilon {
		// Cannot reserve: restore the mirror and NACK back along the
		// reversed prefix so every upstream node rolls back.
		if prev >= 0 {
			if pcs := n.chans[prev]; pcs != nil {
				pcs.in += amount
			}
		}
		n.mu.Unlock()
		n.sendNack(msg)
		return
	}
	cs.out -= amount
	n.mu.Unlock()
	n.forward(msg)
}

// balanceEpsilon absorbs float64 rounding in balance comparisons.
const balanceEpsilon = 1e-9

// sendNack turns msg, in place, into the COMMIT_NACK travelling back from
// this (failing) node to the original sender over the reversed committed
// prefix: failing-node → ... → sender (delivered at once when the sender
// itself could not reserve its first hop). A NACK carries no probe vectors.
func (n *Node) sendNack(msg *wire.Message) {
	msg.Path = msg.Path[:msg.Pos+1]
	msg.Capacity, msg.ReverseCap, msg.FeeRate = msg.Capacity[:0], msg.ReverseCap[:0], msg.FeeRate[:0]
	n.turnAround(msg, wire.TypeCommitNack)
}

// handleCommitNack rolls back this node's reservations as the NACK
// passes through, then relays it towards the sender.
func (n *Node) handleCommitNack(msg *wire.Message) {
	amount := msg.Commit
	prev := msg.Prev() // the node we had forwarded the COMMIT to
	n.mu.Lock()
	if prev >= 0 {
		if cs := n.chans[prev]; cs != nil {
			cs.out += amount // undo our reservation towards them
		}
	}
	if !msg.AtEnd() {
		// We are an intermediate node on the original path: also undo
		// the upstream mirror we applied on COMMIT.
		if cs := n.chans[msg.Next()]; cs != nil {
			cs.in += amount
		}
	}
	n.mu.Unlock()
	n.relayOrDeliver(msg)
}

// handleConfirm relays phase 2 towards the receiver, which collects the
// funds — crediting its spendable balance on the reverse direction of
// the final hop — and answers with CONFIRM_ACK.
func (n *Node) handleConfirm(msg *wire.Message) {
	if msg.AtEnd() {
		n.mu.Lock()
		if prev := msg.Prev(); prev >= 0 {
			if cs := n.chans[prev]; cs != nil {
				cs.out += msg.Commit
			}
		}
		n.mu.Unlock()
		n.turnAround(msg, wire.TypeConfirmAck)
		return
	}
	n.forward(msg)
}

// handleConfirmAck credits the reverse channel directions as the ack
// travels back ("each intermediate node processes CONFIRM_ACK by adding
// the committed funds of this sub-payment to the channel in the reverse
// direction"). Receiving the ack from X credits our mirror of X→us;
// relaying it to Z credits our balance towards Z.
func (n *Node) handleConfirmAck(msg *wire.Message) {
	amount := msg.Commit
	n.mu.Lock()
	if prev := msg.Prev(); prev >= 0 {
		if cs := n.chans[prev]; cs != nil {
			cs.in += amount
		}
	}
	if !msg.AtEnd() {
		if cs := n.chans[msg.Next()]; cs != nil {
			cs.out += amount
		}
	}
	n.mu.Unlock()
	n.relayOrDeliver(msg)
}

// handleReverse rolls back a fully reserved sub-payment as the REVERSE
// travels the forward path ("all intermediate nodes then add back the
// committed funds to the channel in the forward path"); the receiver
// answers REVERSE_ACK.
func (n *Node) handleReverse(msg *wire.Message) {
	amount := msg.Commit
	n.mu.Lock()
	if prev := msg.Prev(); prev >= 0 {
		if cs := n.chans[prev]; cs != nil {
			cs.in += amount
		}
	}
	if !msg.AtEnd() {
		if cs := n.chans[msg.Next()]; cs != nil {
			cs.out += amount
		}
	}
	n.mu.Unlock()
	if msg.AtEnd() {
		n.turnAround(msg, wire.TypeReverseAck)
		return
	}
	n.forward(msg)
}
