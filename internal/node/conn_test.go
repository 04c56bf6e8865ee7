package node

import (
	"bytes"
	"errors"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/topo"
	"repro/internal/wire"
)

// connsPerPeer counts n's open connections by the peer each serves; an
// accepted connection whose hello has not been read counts under -1.
func connsPerPeer(n *Node) map[topo.NodeID]int {
	n.connMu.Lock()
	defer n.connMu.Unlock()
	per := make(map[topo.NodeID]int)
	for pc := range n.open {
		per[pc.peer]++
	}
	return per
}

// writer returns the connection that carries n's writes to peer, or nil.
func writer(n *Node, peer topo.NodeID) *peerConn {
	n.connMu.Lock()
	defer n.connMu.Unlock()
	return n.conns[peer]
}

// waitUntil polls cond for up to two seconds and reports whether it held.
func waitUntil(cond func() bool) bool {
	for deadline := time.Now().Add(2 * time.Second); time.Now().Before(deadline); {
		if cond() {
			return true
		}
		time.Sleep(100 * time.Microsecond)
	}
	return cond()
}

// readLoops counts the goroutines running a node's read loop.
func readLoops() int {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	return bytes.Count(buf, []byte("node.(*Node).readLoop("))
}

// Two nodes whose first messages to each other cross both dial, and
// each keeps the two connections. In "dialed first" each registers its
// own dial before the peer's, so each writes on its own dial and the
// peer's carries the replies to it; in "accepted first" each registers
// the peer's dial first, so its own loses the race and carries the
// peer's writes. Either way a round trip completes only if the losing
// connection stays open and is read: a node that closed it would lose
// the frames the peer writes on it.
func TestSimultaneousDial(t *testing.T) {
	for _, dialedFirst := range []bool{true, false} {
		name := "accepted first"
		if dialedFirst {
			name = "dialed first"
		}
		t.Run(name, func(t *testing.T) {
			for round := 0; round < 50 && !t.Failed(); round++ {
				crossFirstMessages(t, dialedFirst)
			}
		})
	}
}

// crossFirstMessages boots a fresh pair and has both nodes send their
// first message at once, the hook ordering the two registrations at
// each node; then every round trip must complete.
func crossFirstMessages(t *testing.T, dialedFirst bool) {
	var mu sync.Mutex
	dialing := make(map[*Node]chan struct{}) // closed once n's own dial is about to register
	dialSignal := func(n *Node) chan struct{} {
		mu.Lock()
		defer mu.Unlock()
		if dialing[n] == nil {
			dialing[n] = make(chan struct{})
		}
		return dialing[n]
	}
	testHookRegister = func(n *Node, peer topo.NodeID, dialed bool) {
		has := func() bool { return writer(n, peer) != nil }
		switch {
		case dialed && dialedFirst:
		case dialed:
			close(dialSignal(n))
			if !waitUntil(has) {
				t.Errorf("node %d: the dial from %d never registered", n.id, peer)
			}
		case dialedFirst:
			if !waitUntil(has) {
				t.Errorf("node %d: its own dial to %d never registered", n.id, peer)
			}
		default:
			select {
			case <-dialSignal(n):
			case <-time.After(2 * time.Second):
				t.Errorf("node %d never dialed %d", n.id, peer)
			}
		}
	}
	nodes := startCluster(t, topo.Line(2), 100)
	defer func() {
		for _, n := range nodes {
			n.Close()
		}
		testHookRegister = nil
	}()

	roundTrips := func(pay bool) {
		var wg sync.WaitGroup
		for _, n := range nodes {
			wg.Add(1)
			go func() {
				defer wg.Done()
				peer := 1 - n.id
				s, err := n.NewSession(peer, 1)
				if err != nil {
					t.Error(err)
					return
				}
				path := []topo.NodeID{n.id, peer}
				if _, err := s.Probe(path); err != nil {
					t.Errorf("probe %d→%d: %v", n.id, peer, err)
					return
				}
				if !pay {
					s.Abort()
					return
				}
				if err := s.Hold(path, 1); err != nil {
					t.Errorf("hold %d→%d: %v", n.id, peer, err)
				} else if err := s.Commit(); err != nil {
					t.Errorf("commit %d→%d: %v", n.id, peer, err)
				}
			}()
		}
		wg.Wait()
	}
	roundTrips(false)
	if t.Failed() {
		return
	}
	for _, n := range nodes {
		peer := 1 - n.id
		if got := connsPerPeer(n)[peer]; got != 2 {
			t.Errorf("node %d holds %d connections to %d after a crossed dial, want 2", n.id, got, peer)
		}
	}
	roundTrips(true)
}

// An inbound connection that does not open with a valid hello from a
// topology neighbour is dropped within the node's timeout. While such
// connections wait, the node accepts and serves others; a valid hello
// from a neighbour that already has a connection adds a read-only one
// and leaves the adopted connection carrying the node's writes.
func TestHostileHandshake(t *testing.T) {
	const timeout = 300 * time.Millisecond
	nodes := startClusterTimeout(t, topo.Line(4), 1000, timeout) // node 1: neighbours 0 and 2
	cases := []struct {
		name      string
		send      []byte
		closeSend bool // half-close after send
	}{
		{"no hello", nil, false},
		{"truncated", wire.AppendHello(nil, 0)[:5], false},
		{"close mid-hello", wire.AppendHello(nil, 0)[:3], true},
		{"malformed", append([]byte("HTTP"), 0, 0, 0, 0), false},
		{"out of range", wire.AppendHello(nil, 99), false},
		{"negative", wire.AppendHello(nil, -1), false},
		{"self", wire.AppendHello(nil, 1), false},
		{"not a neighbour", wire.AppendHello(nil, 3), false},
	}
	conns := make([]*net.TCPConn, len(cases))
	sent := make([]time.Time, len(cases))
	for i, c := range cases {
		conn, err := net.Dial("tcp", nodes[1].Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		conns[i] = conn.(*net.TCPConn)
		if _, err := conn.Write(c.send); err != nil {
			t.Fatal(err)
		}
		if c.closeSend {
			conns[i].CloseWrite()
		}
		sent[i] = time.Now()
	}

	// Payments both ways through node 1 while the hostile connections
	// are pending: node 0's and node 2's dials queue behind them, so a
	// read of their hellos on the accept loop would outlast the reply
	// timeout.
	pay := func(from, to topo.NodeID, path []topo.NodeID) {
		t.Helper()
		s, err := nodes[from].NewSession(to, 10)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Probe(path); err != nil {
			t.Fatalf("probe %v: %v", path, err)
		}
		if err := s.Hold(path, 10); err != nil {
			t.Fatalf("hold %v: %v", path, err)
		}
		if err := s.Commit(); err != nil {
			t.Fatalf("commit %v: %v", path, err)
		}
	}
	pay(0, 3, []topo.NodeID{0, 1, 2, 3})
	pay(3, 0, []topo.NodeID{3, 2, 1, 0})
	adopted := writer(nodes[1], 0)
	if adopted == nil {
		t.Fatal("node 1 has no connection to node 0 after paying through it")
	}

	for i, c := range cases {
		conns[i].SetReadDeadline(time.Now().Add(timeout + 2*time.Second))
		_, err := conns[i].Read(make([]byte, 1))
		var ne net.Error
		if err == nil || errors.As(err, &ne) && ne.Timeout() {
			t.Errorf("%s: read = %v, want the connection dropped", c.name, err)
			continue
		}
		if waited := time.Since(sent[i]); waited > timeout+time.Second {
			t.Errorf("%s: dropped after %v, node timeout %v", c.name, waited, timeout)
		}
	}

	// A second connection claiming node 0 is read but does not take over.
	dup, err := net.Dial("tcp", nodes[1].Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer dup.Close()
	if _, err := dup.Write(wire.AppendHello(nil, 0)); err != nil {
		t.Fatal(err)
	}
	if !waitUntil(func() bool { return connsPerPeer(nodes[1])[0] == 2 }) {
		t.Fatalf("node 1's connections by peer = %v, want two to node 0", connsPerPeer(nodes[1]))
	}
	pay(0, 3, []topo.NodeID{0, 1, 2, 3})
	if got := writer(nodes[1], 0); got != adopted {
		t.Error("a later hello from node 0 displaced the adopted connection")
	}
	if per := connsPerPeer(nodes[1]); len(per) != 2 || per[2] != 1 {
		t.Errorf("node 1's connections by peer = %v, want two to node 0 and one to node 2", per)
	}
}

// A channel is one connection: after payments both ways over a line,
// each node holds exactly one connection per neighbour, the one its
// writes go on (a connection per direction would make it two). Close
// leaves no read loop behind.
func TestOneConnectionPerChannel(t *testing.T) {
	before := readLoops()
	g := topo.Line(4)
	nodes := startCluster(t, g, 100)
	for _, path := range [][]topo.NodeID{{0, 1, 2, 3}, {3, 2, 1, 0}, {1, 2}, {2, 1, 0}} {
		s, err := nodes[path[0]].NewSession(path[len(path)-1], 10)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Hold(path, 10); err != nil {
			t.Fatalf("hold %v: %v", path, err)
		}
		if err := s.Commit(); err != nil {
			t.Fatalf("commit %v: %v", path, err)
		}
	}
	for _, n := range nodes {
		per := connsPerPeer(n)
		nbrs := g.Neighbors(n.id)
		if len(per) != len(nbrs) {
			t.Errorf("node %d: connections by peer %v, want one per neighbour %v", n.id, per, nbrs)
		}
		for _, v := range nbrs {
			if per[v] != 1 || writer(n, v) == nil {
				t.Errorf("node %d: %d connections to %d (adopted: %v), want 1", n.id, per[v], v, writer(n, v) != nil)
			}
		}
	}
	for _, n := range nodes {
		n.Close()
		if len(n.open) != 0 || len(n.conns) != 0 {
			t.Errorf("node %d: %d open and %d adopted connections after Close", n.id, len(n.open), len(n.conns))
		}
	}
	if !waitUntil(func() bool { return readLoops() <= before }) {
		t.Errorf("%d read loops running after Close, %d before the nodes started", readLoops(), before)
	}
}
