// Package node implements the paper's prototype node (§5.1): a TCP
// daemon that participates in an offchain network with source routing,
// balance probing, and a two-phase-commit payment protocol in place of
// HTLC cryptography.
//
// Each node knows the full topology (without balances) and the state of
// its own adjacent channels — both directions, which the two-phase
// commit keeps consistent across the two channel parties exactly as the
// paper describes ("adding the committed funds of this sub-payment to
// the channel in the reverse direction, in order to make the
// bidirectional channel balances consistent").
//
// Message flow (paper §5.1):
//
//	PROBE/PROBE_ACK       collect per-hop balances and fees
//	COMMIT/COMMIT_ACK     phase 1: reserve funds hop by hop
//	COMMIT_NACK           phase 1 failure: prefix rolls back as it returns
//	CONFIRM/CONFIRM_ACK   phase 2: finalise, crediting reverse directions
//	REVERSE/REVERSE_ACK   phase 2 alternative: roll a sub-payment back
//
// The sender-side API is Session (see session.go), which implements
// route.Session so the same routers drive simulated and real networks.
package node

import (
	"errors"
	"fmt"
	"math"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/pcn"
	"repro/internal/topo"
	"repro/internal/wire"
)

// Config configures a Node.
type Config struct {
	ID         topo.NodeID
	Graph      *topo.Graph
	ListenAddr string        // e.g. "127.0.0.1:0"; empty defaults to that
	Timeout    time.Duration // per-operation reply timeout; default 5s
}

// channelState is the node's view of one adjacent channel: the balance
// it can spend towards the peer (out) and its mirror of what the peer
// can spend towards it (in).
type channelState struct {
	out    float64
	in     float64
	feeOut pcn.FeeSchedule
	feeIn  pcn.FeeSchedule
}

// Node is one offchain network participant.
type Node struct {
	id      topo.NodeID
	graph   *topo.Graph
	timeout time.Duration

	mu    sync.Mutex
	chans map[topo.NodeID]*channelState
	peers map[topo.NodeID]string

	// connMu guards conns, the connection per peer that carries this
	// node's writes to it, and open, every connection with a read loop,
	// adopted or not.
	connMu sync.Mutex
	conns  map[topo.NodeID]*peerConn
	open   map[*peerConn]struct{}

	// pendingMu guards pending, the call slots awaiting a reply by
	// TransID, and idle, the slots no round trip is using.
	pendingMu sync.Mutex
	pending   map[uint64]*call
	idle      []*call

	ln       net.Listener
	wg       sync.WaitGroup
	closed   atomic.Bool
	transID  atomic.Uint64
	msgsSent atomic.Int64
}

// peerConn is one TCP connection to a channel peer, used in both
// directions. peer is -1 on an accepted connection until its hello has
// named the dialer (register sets it, under connMu). mu serialises writes,
// and buf is the encode buffer every frame written to conn is built in,
// guarded by mu.
type peerConn struct {
	peer topo.NodeID
	conn net.Conn
	mu   sync.Mutex
	buf  []byte
}

// testHookRegister, when set, runs just before a connection whose peer
// is known is registered: dialed ones after their hello is written,
// accepted ones after their hello is read.
var testHookRegister func(n *Node, peer topo.NodeID, dialed bool)

// ErrTimeout is returned when a protocol reply does not arrive within
// the configured timeout.
var ErrTimeout = errors.New("node: timed out waiting for reply")

// New starts a node: it binds its listener and begins accepting
// connections. Channels and peers are configured afterwards with
// SetChannel and SetPeers, before payments flow.
func New(cfg Config) (*Node, error) {
	if cfg.Graph == nil {
		return nil, errors.New("node: nil graph")
	}
	if int(cfg.ID) < 0 || int(cfg.ID) >= cfg.Graph.NumNodes() {
		return nil, fmt.Errorf("node: id %d outside graph", cfg.ID)
	}
	addr := cfg.ListenAddr
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("node %d: listen: %w", cfg.ID, err)
	}
	timeout := cfg.Timeout
	if timeout <= 0 {
		timeout = 5 * time.Second
	}
	n := &Node{
		id:      cfg.ID,
		graph:   cfg.Graph,
		timeout: timeout,
		chans:   make(map[topo.NodeID]*channelState),
		peers:   make(map[topo.NodeID]string),
		conns:   make(map[topo.NodeID]*peerConn),
		open:    make(map[*peerConn]struct{}),
		pending: make(map[uint64]*call),
		ln:      ln,
	}
	// Globally unique transaction IDs: node ID in the top bits.
	n.transID.Store(uint64(cfg.ID+1) << 40)
	n.wg.Add(1)
	go n.acceptLoop()
	return n, nil
}

// ID returns the node's identifier.
func (n *Node) ID() topo.NodeID { return n.id }

// Addr returns the listener address other nodes dial.
func (n *Node) Addr() string { return n.ln.Addr().String() }

// SetPeers installs the address registry (the testbed's equivalent of
// the prototype's local topology file).
func (n *Node) SetPeers(registry map[topo.NodeID]string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	for id, addr := range registry {
		if id != n.id {
			n.peers[id] = addr
		}
	}
}

// SetChannel initialises the adjacent channel towards peer: out is the
// balance this node can spend towards peer, in the reverse balance, and
// feeOut/feeIn the two directions' fee schedules. Balances and both
// terms of each fee schedule must be non-negative and finite.
func (n *Node) SetChannel(peer topo.NodeID, out, in float64, feeOut, feeIn pcn.FeeSchedule) error {
	if !n.graph.HasChannel(n.id, peer) {
		return fmt.Errorf("node %d: no channel to %d in topology", n.id, peer)
	}
	if !nonNegativeFinite(out) || !nonNegativeFinite(in) {
		return fmt.Errorf("node %d: balances towards %d must be non-negative and finite, got %v/%v", n.id, peer, out, in)
	}
	for _, f := range [...]pcn.FeeSchedule{feeOut, feeIn} {
		if !nonNegativeFinite(f.Base) || !nonNegativeFinite(f.Rate) {
			return fmt.Errorf("node %d: fees towards %d must be non-negative and finite, got %+v/%+v", n.id, peer, feeOut, feeIn)
		}
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	n.chans[peer] = &channelState{out: out, in: in, feeOut: feeOut, feeIn: feeIn}
	return nil
}

// nonNegativeFinite reports whether x is a number in [0, +Inf).
func nonNegativeFinite(x float64) bool { return x >= 0 && !math.IsInf(x, 1) }

// Balances returns this node's view of the channel towards peer:
// (out, in), or (0, 0) when no channel is configured.
func (n *Node) Balances(peer topo.NodeID) (out, in float64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if cs, ok := n.chans[peer]; ok {
		return cs.out, cs.in
	}
	return 0, 0
}

// Close shuts the node down: the listener stops, open connections are
// closed, and background goroutines drain.
func (n *Node) Close() error {
	if n.closed.Swap(true) {
		return nil
	}
	err := n.ln.Close()
	n.connMu.Lock()
	for pc := range n.open {
		pc.conn.Close()
	}
	n.connMu.Unlock()
	n.wg.Wait()
	return err
}

// Channels and their connections.
//
// A channel's two nodes share one TCP connection, written in both
// directions: every reply retraces its request's hops, so the reply
// frame carries the transport's acknowledgement of the request. Whoever
// first needs to send dials, lazily, and opens the connection with a
// hello naming itself. The first connection registered for a peer,
// dialed or accepted, carries this node's writes to it. When both
// nodes dial at once, each may adopt a different one, so a connection
// that loses the race is kept open and read, never closed: the peer
// may be writing on it. A connection leaves conns when its read loop
// ends, so the next send redials.

func (n *Node) acceptLoop() {
	defer n.wg.Done()
	for {
		conn, err := n.ln.Accept()
		if err != nil {
			return // listener closed
		}
		pc := &peerConn{peer: -1, conn: conn}
		if !n.track(pc) {
			return
		}
		go n.readLoop(pc)
	}
}

// track adds pc to open, accounting its read loop in wg, unless the
// node is closed, in which case it closes pc's connection. Close sets
// closed before it sweeps open, so a connection tracked after the sweep
// cannot exist.
func (n *Node) track(pc *peerConn) bool {
	n.connMu.Lock()
	defer n.connMu.Unlock()
	if n.closed.Load() {
		pc.conn.Close()
		return false
	}
	n.open[pc] = struct{}{}
	n.wg.Add(1)
	return true
}

// register records that pc's peer is known and returns the connection
// that carries this node's writes to that peer: the one already there,
// or pc if it is the first.
func (n *Node) register(pc *peerConn, peer topo.NodeID, dialed bool) *peerConn {
	if testHookRegister != nil {
		testHookRegister(n, peer, dialed)
	}
	n.connMu.Lock()
	defer n.connMu.Unlock()
	pc.peer = peer
	w, ok := n.conns[peer]
	if !ok {
		w = pc
		n.conns[peer] = pc
	}
	return w
}

// greet reads an accepted connection's hello, within the node's timeout,
// and registers the connection for the node it names, which must be one
// of this node's topology neighbours.
func (n *Node) greet(pc *peerConn) bool {
	if pc.conn.SetReadDeadline(time.Now().Add(n.timeout)) != nil {
		return false
	}
	peer, err := wire.ReadHello(pc.conn)
	if err != nil || peer < 0 || int(peer) >= n.graph.NumNodes() || peer == n.id || !n.graph.HasChannel(n.id, peer) {
		return false
	}
	if pc.conn.SetReadDeadline(time.Time{}) != nil {
		return false
	}
	n.register(pc, peer, false)
	return true
}

// readLoop serves one connection until it fails or closes: an accepted
// one's hello first, then every frame, decoded into the same Message
// (safe under dispatch's ownership rule) and dispatched.
func (n *Node) readLoop(pc *peerConn) {
	defer n.wg.Done()
	defer n.drop(pc)
	if pc.peer < 0 && !n.greet(pc) {
		return
	}
	frames := wire.NewReader(pc.conn)
	var msg wire.Message
	for {
		if err := frames.ReadMessage(&msg); err != nil {
			return
		}
		n.dispatch(&msg)
	}
}

// drop closes a connection whose read loop has ended and forgets it.
func (n *Node) drop(pc *peerConn) {
	pc.conn.Close()
	n.connMu.Lock()
	defer n.connMu.Unlock()
	delete(n.open, pc)
	if pc.peer >= 0 && n.conns[pc.peer] == pc {
		delete(n.conns, pc.peer)
	}
}

// send delivers msg to peer over the channel's connection, dialing one
// on demand. Messages to self dispatch directly.
func (n *Node) send(to topo.NodeID, msg *wire.Message) error {
	if n.closed.Load() {
		return errors.New("node: closed")
	}
	if to == n.id {
		n.dispatch(msg)
		return nil
	}
	pc, err := n.connTo(to)
	if err != nil {
		return err
	}
	return n.write(to, pc, msg)
}

// write frames msg onto pc, the connection to peer to.
func (n *Node) write(to topo.NodeID, pc *peerConn, msg *wire.Message) error {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	var err error
	if pc.buf, err = wire.AppendFrame(pc.buf[:0], msg); err != nil {
		return err
	}
	if _, err := pc.conn.Write(pc.buf); err != nil {
		// Drop the broken connection so the next send redials; its read
		// loop ends on the close.
		n.connMu.Lock()
		if n.conns[to] == pc {
			delete(n.conns, to)
		}
		n.connMu.Unlock()
		pc.conn.Close()
		return err
	}
	n.msgsSent.Add(1)
	return nil
}

// MessagesSent returns the cumulative number of wire messages this node
// has written to peers in full — the daemon's telemetry gauge. Hellos
// are not messages.
func (n *Node) MessagesSent() int64 { return n.msgsSent.Load() }

// connTo returns the connection that carries writes to peer to, dialing
// it if there is none.
func (n *Node) connTo(to topo.NodeID) (*peerConn, error) {
	n.connMu.Lock()
	pc, ok := n.conns[to]
	n.connMu.Unlock()
	if ok {
		return pc, nil
	}

	n.mu.Lock()
	addr, ok := n.peers[to]
	n.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("node %d: no address for peer %d", n.id, to)
	}
	conn, err := net.DialTimeout("tcp", addr, n.timeout)
	if err != nil {
		return nil, fmt.Errorf("node %d: dial %d: %w", n.id, to, err)
	}
	pc = &peerConn{peer: to, conn: conn, buf: wire.AppendHello(nil, n.id)}
	if _, err := conn.Write(pc.buf); err != nil {
		conn.Close()
		return nil, fmt.Errorf("node %d: hello to %d: %w", n.id, to, err)
	}
	if !n.track(pc) {
		return nil, errors.New("node: closed")
	}
	w := n.register(pc, to, true)
	go n.readLoop(pc)
	return w, nil
}

// forward advances msg one hop along its path. send is synchronous, so
// Pos is advanced in msg itself for the write and put back afterwards.
func (n *Node) forward(msg *wire.Message) {
	next := msg.Next()
	if next < 0 {
		return
	}
	msg.Pos++
	_ = n.send(next, msg) // a connectivity failure surfaces as the sender's timeout
	msg.Pos--
}

// call is the state of one round trip, kept in a per-node free list so
// that a warm round trip allocates nothing: the request a session
// injects, the reply deliver copies the terminal message into, the
// signal that it has, and the reply timer. Both messages keep their
// arrays from one round trip to the next.
type call struct {
	req, reply wire.Message
	done       chan struct{} // capacity 1: deliver signals once reply is written
	timer      *time.Timer
}

// getCall takes an idle call slot, or makes one.
func (n *Node) getCall() *call {
	n.pendingMu.Lock()
	if k := len(n.idle); k > 0 {
		c := n.idle[k-1]
		n.idle = n.idle[:k-1]
		n.pendingMu.Unlock()
		return c
	}
	n.pendingMu.Unlock()
	c := &call{done: make(chan struct{}, 1), timer: time.NewTimer(n.timeout)}
	c.timer.Stop()
	return c
}

// putCall returns a slot whose round trip is over: it is in pending no
// more, its done is drained and its timer stopped or fired and read.
func (n *Node) putCall(c *call) {
	n.pendingMu.Lock()
	n.idle = append(n.idle, c)
	n.pendingMu.Unlock()
}

// await registers c to receive the reply to its request.
func (n *Node) await(c *call) {
	n.pendingMu.Lock()
	n.pending[c.req.TransID] = c
	n.pendingMu.Unlock()
}

// deliver hands a terminal reply to the session waiting on its TransID,
// if any, by copying it into that session's call slot — msg itself goes
// back to its readLoop for the next frame. Taking the slot out of
// pending makes deliver its only writer until done is signalled.
func (n *Node) deliver(msg *wire.Message) {
	n.pendingMu.Lock()
	c, ok := n.pending[msg.TransID]
	if ok {
		delete(n.pending, msg.TransID)
	}
	n.pendingMu.Unlock()
	if ok {
		c.reply.CopyFrom(msg)
		c.done <- struct{}{}
	}
}

// cancel withdraws transID's slot after a timeout. It reports whether it
// did; false means a delivery has taken the slot and will signal done.
func (n *Node) cancel(transID uint64) bool {
	n.pendingMu.Lock()
	defer n.pendingMu.Unlock()
	if _, ok := n.pending[transID]; !ok {
		return false
	}
	delete(n.pending, transID)
	return true
}

func (n *Node) newTransID() uint64 { return n.transID.Add(1) }
