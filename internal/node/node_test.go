package node

import (
	"errors"
	"io"
	"math"
	"net"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/pcn"
	"repro/internal/topo"
	"repro/internal/wire"
)

// startLine boots a 3-node line 0-1-2 with the given balances per
// direction and returns the nodes plus a cleanup function.
func startLine(t *testing.T, bal float64) []*Node {
	t.Helper()
	g := topo.Line(3)
	return startCluster(t, g, bal)
}

func startCluster(t *testing.T, g *topo.Graph, bal float64) []*Node {
	t.Helper()
	return startClusterTimeout(t, g, bal, 3*time.Second)
}

// startClusterTimeout boots one node per vertex of g, each with the
// given reply timeout, every channel funded with bal per direction.
func startClusterTimeout(t *testing.T, g *topo.Graph, bal float64, timeout time.Duration) []*Node {
	t.Helper()
	nodes := make([]*Node, g.NumNodes())
	registry := make(map[topo.NodeID]string)
	for i := range nodes {
		n, err := New(Config{ID: topo.NodeID(i), Graph: g, Timeout: timeout})
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = n
		registry[topo.NodeID(i)] = n.Addr()
		t.Cleanup(func() { n.Close() })
	}
	for i := range nodes {
		nodes[i].SetPeers(registry)
		for _, v := range g.Neighbors(topo.NodeID(i)) {
			if err := nodes[i].SetChannel(v, bal, bal,
				pcn.FeeSchedule{Rate: 0.01}, pcn.FeeSchedule{Rate: 0.01}); err != nil {
				t.Fatal(err)
			}
		}
	}
	return nodes
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("nil graph accepted")
	}
	if _, err := New(Config{ID: 9, Graph: topo.Line(3)}); err == nil {
		t.Error("out-of-range ID accepted")
	}
}

func TestSessionValidation(t *testing.T) {
	nodes := startLine(t, 100)
	if _, err := nodes[0].NewSession(0, 5); err == nil {
		t.Error("self-payment accepted")
	}
	if _, err := nodes[0].NewSession(2, -1); err == nil {
		t.Error("negative demand accepted")
	}
	s, err := nodes[0].NewSession(2, 5)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Hold([]topo.NodeID{0, 2}, 5); !errors.Is(err, pcn.ErrBadPath) {
		t.Errorf("hold over missing channel: %v", err)
	}
	if _, err := s.Probe([]topo.NodeID{1, 2}); !errors.Is(err, pcn.ErrBadPath) {
		t.Errorf("probe from wrong sender: %v", err)
	}
}

func TestProbeOverTCP(t *testing.T) {
	nodes := startLine(t, 75)
	s, err := nodes[0].NewSession(2, 10)
	if err != nil {
		t.Fatal(err)
	}
	info, err := s.Probe([]topo.NodeID{0, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(info) != 2 {
		t.Fatalf("hops = %d", len(info))
	}
	for i, h := range info {
		if h.Available != 75 || h.ReverseAvailable != 75 {
			t.Errorf("hop %d: %+v, want 75/75", i, h)
		}
		if h.Fee.Rate != 0.01 {
			t.Errorf("hop %d fee = %v", i, h.Fee.Rate)
		}
	}
	if s.ProbeMessages() != 4 {
		t.Errorf("probe messages = %d, want 4", s.ProbeMessages())
	}
}

func TestPaymentCommitOverTCP(t *testing.T) {
	nodes := startLine(t, 100)
	s, err := nodes[0].NewSession(2, 40)
	if err != nil {
		t.Fatal(err)
	}
	path := []topo.NodeID{0, 1, 2}
	if err := s.Hold(path, 40); err != nil {
		t.Fatal(err)
	}
	if s.HeldTotal() != 40 {
		t.Errorf("held = %v", s.HeldTotal())
	}
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	// Wait for CONFIRM_ACK side effects to settle everywhere (the
	// sender's receipt of the ack is the last step, so state is already
	// final — but poll defensively).
	waitForBalance(t, nodes[0], 1, 60, 140)
	waitForBalance(t, nodes[1], 2, 60, 140)
	// Node 1's mirrors must agree with its neighbours' own views.
	out10, in10 := nodes[1].Balances(0)
	if math.Abs(out10-140) > 1e-9 || math.Abs(in10-60) > 1e-9 {
		t.Errorf("node1 view of channel to 0: out=%v in=%v, want 140/60", out10, in10)
	}
	// The receiver must actually have collected the money: its own
	// spendable balance towards node 1 grew by the payment amount.
	waitForBalance(t, nodes[2], 1, 140, 60)
}

// waitForBalance polls until node n's channel towards peer reaches
// (out, in), failing after 2 seconds.
func waitForBalance(t *testing.T, n *Node, peer topo.NodeID, out, in float64) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		o, i := n.Balances(peer)
		if math.Abs(o-out) < 1e-9 && math.Abs(i-in) < 1e-9 {
			return
		}
		time.Sleep(time.Millisecond)
	}
	o, i := n.Balances(peer)
	t.Fatalf("balance to %d = (%v, %v), want (%v, %v)", peer, o, i, out, in)
}

func TestHoldNackRollsBack(t *testing.T) {
	nodes := startLine(t, 100)
	// Drain node 1's balance towards 2.
	nodes[1].SetChannel(2, 5, 100, pcn.FeeSchedule{}, pcn.FeeSchedule{})
	s, _ := nodes[0].NewSession(2, 50)
	err := s.Hold([]topo.NodeID{0, 1, 2}, 50)
	if !errors.Is(err, pcn.ErrInsufficient) {
		t.Fatalf("err = %v, want ErrInsufficient", err)
	}
	// Everything must be rolled back: node 0 out=100, node 1 in=100.
	waitForBalance(t, nodes[0], 1, 100, 100)
	out, in := nodes[1].Balances(0)
	if math.Abs(out-100) > 1e-9 || math.Abs(in-100) > 1e-9 {
		t.Errorf("node1 upstream after NACK: out=%v in=%v, want 100/100", out, in)
	}
	s.Abort()
}

func TestAbortReversesHolds(t *testing.T) {
	nodes := startLine(t, 100)
	s, _ := nodes[0].NewSession(2, 30)
	if err := s.Hold([]topo.NodeID{0, 1, 2}, 30); err != nil {
		t.Fatal(err)
	}
	// Mid-payment, funds are deducted.
	waitForBalance(t, nodes[0], 1, 70, 100)
	if err := s.Abort(); err != nil {
		t.Fatal(err)
	}
	waitForBalance(t, nodes[0], 1, 100, 100)
	waitForBalance(t, nodes[1], 2, 100, 100)
}

func TestMultiPathAtomicCommit(t *testing.T) {
	g := topo.New(4)
	g.MustAddChannel(0, 1)
	g.MustAddChannel(1, 3)
	g.MustAddChannel(0, 2)
	g.MustAddChannel(2, 3)
	nodes := startCluster(t, g, 50)
	s, _ := nodes[0].NewSession(3, 80)
	if err := s.Hold([]topo.NodeID{0, 1, 3}, 40); err != nil {
		t.Fatal(err)
	}
	if err := s.Hold([]topo.NodeID{0, 2, 3}, 40); err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	waitForBalance(t, nodes[0], 1, 10, 90)
	waitForBalance(t, nodes[0], 2, 10, 90)
	// Receiver gained 40 on each inbound channel.
	waitForBalance(t, nodes[3], 1, 90, 10)
	waitForBalance(t, nodes[3], 2, 90, 10)
}

func TestSessionLifecycle(t *testing.T) {
	nodes := startLine(t, 100)
	s, _ := nodes[0].NewSession(2, 10)
	if err := s.Commit(); err == nil {
		t.Error("commit with no holds accepted")
	}
	if err := s.Hold([]topo.NodeID{0, 1, 2}, 10); err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(); !errors.Is(err, pcn.ErrFinished) {
		t.Errorf("double commit: %v", err)
	}
	if err := s.Abort(); !errors.Is(err, pcn.ErrFinished) {
		t.Errorf("abort after commit: %v", err)
	}
	if _, err := s.Probe([]topo.NodeID{0, 1, 2}); !errors.Is(err, pcn.ErrFinished) {
		t.Errorf("probe after commit: %v", err)
	}
}

func TestTimeoutOnDeadPeer(t *testing.T) {
	g := topo.Line(3)
	nodes := make([]*Node, 3)
	registry := make(map[topo.NodeID]string)
	for i := range nodes {
		n, err := New(Config{ID: topo.NodeID(i), Graph: g, Timeout: 200 * time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = n
		registry[topo.NodeID(i)] = n.Addr()
	}
	defer nodes[0].Close()
	defer nodes[2].Close()
	for i := range nodes {
		nodes[i].SetPeers(registry)
		for _, v := range g.Neighbors(topo.NodeID(i)) {
			nodes[i].SetChannel(v, 100, 100, pcn.FeeSchedule{}, pcn.FeeSchedule{})
		}
	}
	nodes[1].Close() // kill the relay
	s, _ := nodes[0].NewSession(2, 10)
	_, err := s.Probe([]topo.NodeID{0, 1, 2})
	if err == nil {
		t.Fatal("probe through dead relay succeeded")
	}
}

func TestLocalBalance(t *testing.T) {
	nodes := startLine(t, 60)
	s, _ := nodes[0].NewSession(2, 10)
	if got := s.LocalBalance(0, 1); got != 60 {
		t.Errorf("LocalBalance(0,1) = %v", got)
	}
	if got := s.LocalBalance(1, 2); got != 0 {
		t.Errorf("LocalBalance for remote hop = %v, want 0 (unknown)", got)
	}
	s.Abort()
}

func TestConcurrentPayments(t *testing.T) {
	g := topo.Ring(6)
	nodes := startCluster(t, g, 10000)
	var wg sync.WaitGroup
	errs := make(chan error, 24)
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(id topo.NodeID) {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				target := (id + 1) % 6
				s, err := nodes[id].NewSession(target, 10)
				if err != nil {
					errs <- err
					return
				}
				if err := s.Hold([]topo.NodeID{id, target}, 10); err != nil {
					s.Abort()
					continue
				}
				if err := s.Commit(); err != nil {
					errs <- err
					return
				}
			}
		}(topo.NodeID(w))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	// Total funds conserved: every channel's two spendable balances.
	time.Sleep(50 * time.Millisecond) // let final acks land
	total := 0.0
	for _, e := range g.Channels() {
		outA, _ := nodes[e.A].Balances(e.B)
		outB, _ := nodes[e.B].Balances(e.A)
		total += outA + outB
	}
	if math.Abs(total-6*2*10000) > 1e-6 {
		t.Errorf("total funds = %v, want %v", total, 6*2*10000.0)
	}
}

// deliverWhenPending waits until n has a session waiting on transID and
// hands it reply, as a peer that learnt the ID from a frame could.
func deliverWhenPending(t *testing.T, n *Node, reply *wire.Message) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		n.pendingMu.Lock()
		_, waiting := n.pending[reply.TransID]
		n.pendingMu.Unlock()
		if waiting {
			n.deliver(reply)
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Errorf("no session waited on trans %d", reply.TransID)
}

// A reply of the wrong type, or a PROBE_ACK whose vectors are shorter
// than the path, is an error for the session — not an index out of range.
func TestMalformedReplyIsAnError(t *testing.T) {
	// One node and no peer addresses: the real request goes nowhere, so
	// the only reply is the one the test delivers.
	n, err := New(Config{ID: 0, Graph: topo.Line(3), Timeout: 3 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	if err := n.SetChannel(1, 100, 100, pcn.FeeSchedule{}, pcn.FeeSchedule{}); err != nil {
		t.Fatal(err)
	}
	path := []topo.NodeID{0, 1, 2}
	two := []float64{1, 2}
	for name, reply := range map[string]*wire.Message{
		"short FeeRate":  {Type: wire.TypeProbeAck, Capacity: two, ReverseCap: two, FeeRate: two[:1]},
		"no FeeRate":     {Type: wire.TypeProbeAck, Capacity: two},
		"short Capacity": {Type: wire.TypeProbeAck, Capacity: two[:1], FeeRate: two},
		"wrong type":     {Type: wire.TypeReverseAck, Capacity: two, ReverseCap: two, FeeRate: two},
	} {
		s, err := n.NewSession(2, 10)
		if err != nil {
			t.Fatal(err)
		}
		// answered runs one session operation while reply is delivered
		// to the transaction it opens.
		answered := func(op func() error) error {
			reply.TransID = n.transID.Load() + 1
			delivered := make(chan struct{})
			go func() {
				defer close(delivered)
				deliverWhenPending(t, n, reply)
			}()
			err := op()
			<-delivered
			return err
		}
		err = answered(func() error { _, err := s.Probe(path); return err })
		if err == nil || errors.Is(err, ErrTimeout) {
			t.Errorf("%s: Probe = %v; want a malformed-reply error", name, err)
		}
		err = answered(func() error { return s.Hold(path, 10) })
		if err == nil || errors.Is(err, ErrTimeout) || errors.Is(err, pcn.ErrInsufficient) {
			t.Errorf("%s: Hold = %v; want an unexpected-reply error", name, err)
		}
	}
}

// probeRaw runs one PROBE round trip from n and returns the call slot
// holding the reply exactly as deliver wrote it. The caller hands the
// slot back with putCall.
func probeRaw(n *Node, path []topo.NodeID) (*call, error) {
	s := &Session{n: n}
	return s.roundTrip(wire.TypeProbe, path, 0)
}

// The deliver-copies rule: a reply in a call slot belongs to the
// session. Both replies below reach node 0 over the one connection from
// node 1, whose readLoop decodes every frame into the same Message; the
// first reply, still in its slot, must read the same after the second,
// shorter one has arrived. Run under -race, the concurrent sessions also
// catch a slot that still aliases that Message.
func TestDeliveredReplySurvivesNextFrame(t *testing.T) {
	nodes := startCluster(t, topo.Line(4), 75)
	long, short := []topo.NodeID{0, 1, 2, 3}, []topo.NodeID{0, 1, 2}
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				first, err := probeRaw(nodes[0], long)
				if err != nil {
					t.Error(err)
					return
				}
				var want wire.Message
				want.CopyFrom(&first.reply)
				second, err := probeRaw(nodes[0], short)
				if err != nil {
					t.Error(err)
					return
				}
				nodes[0].putCall(second)
				got := &first.reply
				if !reflect.DeepEqual(got, &want) {
					t.Errorf("first reply changed after the second arrived:\n got %+v\nwant %+v", got, &want)
					return
				}
				if len(got.Capacity) != 3 || got.Type != wire.TypeProbeAck || !slices.Equal(got.Path, []topo.NodeID{3, 2, 1, 0}) {
					t.Errorf("unexpected PROBE_ACK %+v", got)
					return
				}
				nodes[0].putCall(first)
			}
		}()
	}
	wg.Wait()
}

// MessagesSent counts frames that reached the wire: a send that cannot
// be written leaves it alone.
func TestMessagesSentCountsWrittenFrames(t *testing.T) {
	nodes := startLine(t, 100)
	s, _ := nodes[0].NewSession(2, 10)
	if _, err := s.Probe([]topo.NodeID{0, 1, 2}); err != nil {
		t.Fatal(err)
	}
	if got := nodes[0].MessagesSent(); got != 1 {
		t.Fatalf("after one probe, sender sent %d frames, want 1", got)
	}
	// Break the sender's connection under it: the write on it fails.
	// (send would redial once the connection's read loop has dropped it.)
	nodes[0].connMu.Lock()
	pc := nodes[0].conns[1]
	nodes[0].connMu.Unlock()
	pc.conn.Close()
	if err := nodes[0].write(1, pc, &wire.Message{Type: wire.TypeProbe, Path: []topo.NodeID{0, 1}, Pos: 1}); err == nil {
		t.Fatal("write to a closed connection succeeded")
	}
	if got := nodes[0].MessagesSent(); got != 1 {
		t.Errorf("failed write counted: MessagesSent = %d, want 1", got)
	}
}

// Probe results live in the session's probe-result arena: one returned
// before the arena outgrows its inline array, or a chunk, reads the same
// after, and appending to a result cannot reach the next one.
func TestProbeResultsSurviveArenaGrowth(t *testing.T) {
	nodes := startLine(t, 100)
	s, err := nodes[0].NewSession(2, 10)
	if err != nil {
		t.Fatal(err)
	}
	const probes = 100 // 200 results: the inline array and two chunks
	results := make([][]pcn.HopInfo, probes)
	for i := range results {
		// Node 1 reports its balance towards 2, so each result is
		// distinct.
		if err := nodes[1].SetChannel(2, float64(i), 100, pcn.FeeSchedule{}, pcn.FeeSchedule{}); err != nil {
			t.Fatal(err)
		}
		info, err := s.Probe([]topo.NodeID{0, 1, 2})
		if err != nil {
			t.Fatal(err)
		}
		if len(info) != 2 || cap(info) != 2 {
			t.Fatalf("probe %d: len %d cap %d, want 2 and 2", i, len(info), cap(info))
		}
		results[i] = info
	}
	for i, info := range results {
		if info[0].Available != 100 || info[1].Available != float64(i) {
			t.Errorf("probe %d reads %+v after later probes, want hop 2 available %d", i, info, i)
		}
	}
}

// A timed-out round trip whose reply lands as its timer fires must not
// hand that reply to the next round trip that reuses its call slot.
// Deliveries are timed across the timeout, so every ordering of
// deliver, timer and cancel occurs; each round trip is followed by one
// answered with its own reply, which must read its own TransID.
func TestLateReplyNeverReachesRecycledSlot(t *testing.T) {
	n, err := New(Config{ID: 0, Graph: topo.Line(3), Timeout: 3 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	if err := n.SetChannel(1, 100, 100, pcn.FeeSchedule{}, pcn.FeeSchedule{}); err != nil {
		t.Fatal(err)
	}
	// No peer addresses: a request goes nowhere, and the only replies
	// are the ones the test delivers.
	s := &Session{n: n}
	path := []topo.NodeID{0, 1, 2}
	const timeout = 2 * time.Millisecond
	for i := 0; i < 200; i++ {
		n.timeout = timeout
		late := &wire.Message{TransID: n.transID.Load() + 1, Type: wire.TypeProbeAck}
		delivered := make(chan struct{})
		go func() {
			defer close(delivered)
			time.Sleep(timeout - 500*time.Microsecond + time.Duration(i%11)*100*time.Microsecond)
			n.deliver(late)
		}()
		c, err := s.roundTrip(wire.TypeProbe, path, 0)
		switch {
		case err == nil:
			if c.reply.TransID != late.TransID {
				t.Fatalf("round trip %d: reply for trans %d, want %d", i, c.reply.TransID, late.TransID)
			}
			n.putCall(c)
		case !errors.Is(err, ErrTimeout):
			t.Fatal(err)
		}
		<-delivered

		n.timeout = 3 * time.Second
		own := &wire.Message{TransID: n.transID.Load() + 1, Type: wire.TypeProbeAck}
		answered := make(chan struct{})
		go func() {
			defer close(answered)
			deliverWhenPending(t, n, own)
		}()
		c, err = s.roundTrip(wire.TypeProbe, path, 0)
		<-answered
		if err != nil {
			t.Fatal(err)
		}
		if c.reply.TransID != own.TransID || c.req.TransID != own.TransID {
			t.Fatalf("round trip %d: request %d got the reply for trans %d, want %d",
				i, c.req.TransID, c.reply.TransID, own.TransID)
		}
		n.putCall(c)
	}
	if len(n.pending) != 0 {
		t.Errorf("%d slots left pending", len(n.pending))
	}
}

// Fee schedules with a negative, NaN or infinite term are refused at
// set-up, in either direction, and leave the configured channel as it
// was.
func TestSetChannelRejectsBadFees(t *testing.T) {
	n, err := New(Config{ID: 0, Graph: topo.Line(2), Timeout: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	good := pcn.FeeSchedule{Base: 1, Rate: 0.01}
	if err := n.SetChannel(1, 100, 50, good, good); err != nil {
		t.Fatal(err)
	}
	for _, x := range []float64{-1, math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, bad := range []pcn.FeeSchedule{{Base: x, Rate: 0.01}, {Base: 1, Rate: x}} {
			if err := n.SetChannel(1, 10, 10, bad, good); err == nil || !strings.Contains(err.Error(), "fees towards 1") {
				t.Errorf("outgoing fee %+v: error %v, want a fee error", bad, err)
			}
			if err := n.SetChannel(1, 10, 10, good, bad); err == nil || !strings.Contains(err.Error(), "fees towards 1") {
				t.Errorf("incoming fee %+v: error %v, want a fee error", bad, err)
			}
		}
	}
	if out, in := n.Balances(1); out != 100 || in != 50 {
		t.Errorf("balances %v/%v after rejected updates, want 100/50", out, in)
	}
	if err := n.SetChannel(1, 10, 10, pcn.FeeSchedule{}, pcn.FeeSchedule{}); err != nil {
		t.Errorf("zero fees rejected: %v", err)
	}
}

// Amounts that are not positive finite numbers are refused at the
// sender, and balances that are negative or not finite at set-up: a NaN
// hold used to commit and turn the sender's balance into NaN.
func TestNonFiniteAmountsRejected(t *testing.T) {
	nodes := startLine(t, 100)
	path := []topo.NodeID{0, 1, 2}
	for _, x := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := nodes[0].NewSession(2, x); err == nil {
			t.Errorf("NewSession with demand %v accepted", x)
		}
		s, err := nodes[0].NewSession(2, 10)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Hold(path, x); err == nil {
			t.Errorf("Hold of %v accepted", x)
		}
		if err := s.Abort(); err != nil {
			t.Fatal(err)
		}
		if err := nodes[0].SetChannel(1, x, 100, pcn.FeeSchedule{}, pcn.FeeSchedule{}); err == nil {
			t.Errorf("SetChannel with balance %v accepted", x)
		}
		if err := nodes[0].SetChannel(1, 100, x, pcn.FeeSchedule{}, pcn.FeeSchedule{}); err == nil {
			t.Errorf("SetChannel with reverse balance %v accepted", x)
		}
	}
	if err := nodes[0].SetChannel(1, -1, 100, pcn.FeeSchedule{}, pcn.FeeSchedule{}); err == nil {
		t.Error("SetChannel with a negative balance accepted")
	}
	waitForBalance(t, nodes[0], 1, 100, 100)
	waitForBalance(t, nodes[1], 0, 100, 100)
	waitForBalance(t, nodes[1], 2, 100, 100)
}

// A COMMIT frame with a negative or non-finite amount is malformed: the
// relay it is written to drops it, and the connection with it, and its
// balances do not move. A -50 commit used to mint 50 on both of node 1's
// channels.
func TestRelayDropsBadCommitFrame(t *testing.T) {
	nodes := startLine(t, 100)
	for _, x := range []float64{-50, math.NaN(), math.Inf(1)} {
		frame, err := wire.Encode(&wire.Message{
			TransID: 1, Type: wire.TypeCommit, Path: []topo.NodeID{0, 1, 2}, Pos: 1, Commit: x,
		})
		if err != nil {
			t.Fatal(err)
		}
		conn, err := net.Dial("tcp", nodes[1].Addr())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Write(append(wire.AppendHello(nil, 0), frame...)); err != nil {
			t.Fatal(err)
		}
		// The node closes a connection once a frame fails to decode, so
		// EOF means the frame has been judged.
		conn.SetReadDeadline(time.Now().Add(2 * time.Second))
		if _, err := conn.Read(make([]byte, 1)); err != io.EOF {
			t.Errorf("commit %v: read after the frame = %v, want EOF (connection dropped)", x, err)
		}
		conn.Close()
		for _, peer := range []topo.NodeID{0, 2} {
			if out, in := nodes[1].Balances(peer); out != 100 || in != 100 {
				t.Errorf("commit %v: node 1 towards %d = %v/%v, want 100/100", x, peer, out, in)
			}
		}
	}
}
