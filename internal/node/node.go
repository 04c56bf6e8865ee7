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

	connMu   sync.Mutex
	conns    map[topo.NodeID]*peerConn
	accepted map[net.Conn]struct{}

	pendingMu sync.Mutex
	pending   map[uint64]chan *wire.Message

	ln       net.Listener
	wg       sync.WaitGroup
	closed   atomic.Bool
	transID  atomic.Uint64
	msgsSent atomic.Int64
}

// peerConn serialises writes to one TCP connection. buf is the encode
// buffer every frame written to conn is built in, guarded by mu.
type peerConn struct {
	mu   sync.Mutex
	conn net.Conn
	buf  []byte
}

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
		id:       cfg.ID,
		graph:    cfg.Graph,
		timeout:  timeout,
		chans:    make(map[topo.NodeID]*channelState),
		peers:    make(map[topo.NodeID]string),
		conns:    make(map[topo.NodeID]*peerConn),
		pending:  make(map[uint64]chan *wire.Message),
		accepted: make(map[net.Conn]struct{}),
		ln:       ln,
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

// Graph returns the node's local topology view.
func (n *Node) Graph() *topo.Graph { return n.graph }

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
// feeOut/feeIn the two directions' fee schedules.
func (n *Node) SetChannel(peer topo.NodeID, out, in float64, feeOut, feeIn pcn.FeeSchedule) error {
	if !n.graph.HasChannel(n.id, peer) {
		return fmt.Errorf("node %d: no channel to %d in topology", n.id, peer)
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	n.chans[peer] = &channelState{out: out, in: in, feeOut: feeOut, feeIn: feeIn}
	return nil
}

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
	for _, pc := range n.conns {
		pc.conn.Close()
	}
	n.conns = make(map[topo.NodeID]*peerConn)
	for conn := range n.accepted {
		conn.Close()
	}
	n.accepted = make(map[net.Conn]struct{})
	n.connMu.Unlock()
	n.wg.Wait()
	return err
}

func (n *Node) acceptLoop() {
	defer n.wg.Done()
	for {
		conn, err := n.ln.Accept()
		if err != nil {
			return // listener closed
		}
		n.connMu.Lock()
		n.accepted[conn] = struct{}{}
		n.connMu.Unlock()
		n.wg.Add(1)
		go n.readLoop(conn)
	}
}

// readLoop decodes every frame from one connection into the same Message
// (safe under dispatch's ownership rule) and dispatches it.
func (n *Node) readLoop(conn net.Conn) {
	defer n.wg.Done()
	defer func() {
		conn.Close()
		n.connMu.Lock()
		delete(n.accepted, conn)
		n.connMu.Unlock()
	}()
	frames := wire.NewReader(conn)
	var msg wire.Message
	for {
		if err := frames.ReadMessage(&msg); err != nil {
			return
		}
		n.dispatch(&msg)
	}
}

// send delivers msg to peer, dialing (and caching) a connection on
// demand. Messages to self dispatch directly.
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
	pc.mu.Lock()
	defer pc.mu.Unlock()
	if pc.buf, err = wire.AppendFrame(pc.buf[:0], msg); err != nil {
		return err
	}
	if _, err := pc.conn.Write(pc.buf); err != nil {
		// Drop the broken connection so the next send redials.
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
// has written to peers in full — the daemon's telemetry gauge.
func (n *Node) MessagesSent() int64 { return n.msgsSent.Load() }

func (n *Node) connTo(to topo.NodeID) (*peerConn, error) {
	n.connMu.Lock()
	if pc, ok := n.conns[to]; ok {
		n.connMu.Unlock()
		return pc, nil
	}
	n.connMu.Unlock()

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
	pc := &peerConn{conn: conn}
	n.connMu.Lock()
	if existing, ok := n.conns[to]; ok {
		n.connMu.Unlock()
		conn.Close()
		return existing, nil
	}
	n.conns[to] = pc
	n.connMu.Unlock()
	return pc, nil
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

// deliver hands a terminal reply to the waiting session, if any — a copy,
// because msg itself goes back to its readLoop for the next frame.
func (n *Node) deliver(msg *wire.Message) {
	n.pendingMu.Lock()
	ch, ok := n.pending[msg.TransID]
	if ok {
		delete(n.pending, msg.TransID)
	}
	n.pendingMu.Unlock()
	if ok {
		ch <- msg.Clone()
	}
}

// await registers a reply slot for transID.
func (n *Node) await(transID uint64) chan *wire.Message {
	ch := make(chan *wire.Message, 1)
	n.pendingMu.Lock()
	n.pending[transID] = ch
	n.pendingMu.Unlock()
	return ch
}

// cancel removes a reply slot after a timeout.
func (n *Node) cancel(transID uint64) {
	n.pendingMu.Lock()
	delete(n.pending, transID)
	n.pendingMu.Unlock()
}

func (n *Node) newTransID() uint64 { return n.transID.Add(1) }
