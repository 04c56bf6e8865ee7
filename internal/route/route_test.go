package route

import (
	"errors"
	"testing"

	"repro/internal/pcn"
	"repro/internal/topo"
)

func lineNet(t *testing.T) *pcn.Network {
	t.Helper()
	g := topo.Line(3)
	net := pcn.New(g)
	for _, e := range g.Channels() {
		if err := net.SetBalance(e.A, e.B, 100, 100); err != nil {
			t.Fatal(err)
		}
	}
	return net
}

// line012 is the hop path 0→1→2 over lineNet's channels 0 (0–1) and 1
// (1–2).
var line012 = topo.MakePath([]topo.NodeID{0, 1, 2}, []int32{0, 1})

func TestMinAvailable(t *testing.T) {
	info := []pcn.HopInfo{{Available: 30}, {Available: 10}, {Available: 20}}
	if got := MinAvailable(info); got != 10 {
		t.Errorf("MinAvailable = %v, want 10", got)
	}
	if got := MinAvailable(nil); got != 0 {
		t.Errorf("MinAvailable(nil) = %v, want 0", got)
	}
}

func TestHoldUpToFullAmount(t *testing.T) {
	net := lineNet(t)
	tx, err := net.Begin(0, 2, 50)
	if err != nil {
		t.Fatal(err)
	}
	if held := HoldUpTo(tx, line012, 50); held != 50 {
		t.Errorf("held = %v, want 50", held)
	}
	// No probe was needed: the direct hold succeeded.
	if tx.ProbeMessages() != 0 {
		t.Errorf("probes = %d, want 0", tx.ProbeMessages())
	}
	tx.Abort()
}

func TestHoldUpToFallsBackToBottleneck(t *testing.T) {
	net := lineNet(t)
	net.SetBalance(1, 2, 30, 170)
	tx, _ := net.Begin(0, 2, 80)
	if held := HoldUpTo(tx, line012, 80); held != 30 {
		t.Errorf("held = %v, want bottleneck 30", held)
	}
	if tx.ProbeMessages() == 0 {
		t.Error("fallback must probe")
	}
	tx.Abort()
}

func TestHoldUpToDeadPath(t *testing.T) {
	net := lineNet(t)
	net.SetBalance(1, 2, 0, 200)
	tx, _ := net.Begin(0, 2, 10)
	if held := HoldUpTo(tx, line012, 10); held != 0 {
		t.Errorf("held = %v on a dead path, want 0", held)
	}
	if held := HoldUpTo(tx, line012, 0); held != 0 {
		t.Errorf("zero want should hold nothing, got %v", held)
	}
	tx.Abort()
}

func TestHoldUpToInvalidPath(t *testing.T) {
	net := lineNet(t)
	tx, _ := net.Begin(0, 2, 10)
	if held := HoldUpTo(tx, topo.MakePath([]topo.NodeID{0, 2}, []int32{0}), 10); held != 0 {
		t.Errorf("held = %v over a channel that does not join its hop, want 0", held)
	}
	tx.Abort()
}

func TestFinishCommitsWhenCovered(t *testing.T) {
	net := lineNet(t)
	tx, _ := net.Begin(0, 2, 40)
	if err := tx.Hold([]topo.NodeID{0, 1, 2}, 40); err != nil {
		t.Fatal(err)
	}
	if err := Finish(tx, nil); err != nil {
		t.Fatalf("Finish = %v, want commit", err)
	}
	if net.Balance(0, 1) != 60 {
		t.Error("commit did not apply")
	}
}

func TestFinishAbortsOnShortfall(t *testing.T) {
	net := lineNet(t)
	tx, _ := net.Begin(0, 2, 40)
	tx.Hold([]topo.NodeID{0, 1, 2}, 10)
	err := Finish(tx, nil)
	if !errors.Is(err, ErrInsufficient) {
		t.Fatalf("Finish = %v, want ErrInsufficient", err)
	}
	if net.Balance(0, 1) != 100 {
		t.Error("abort did not release the partial hold")
	}
	// Custom reason propagates.
	tx2, _ := net.Begin(0, 2, 40)
	custom := errors.New("custom")
	if err := Finish(tx2, custom); !errors.Is(err, custom) {
		t.Errorf("Finish custom reason = %v", err)
	}
}

// countingTx is a decorator that embeds the concrete session, as a
// tracing harness does, and counts the node-path operations it sees.
type countingTx struct {
	*pcn.Tx
	probes, holds int
}

func (c *countingTx) Probe(path []topo.NodeID) ([]pcn.HopInfo, error) {
	c.probes++
	return c.Tx.Probe(path)
}

func (c *countingTx) Hold(path []topo.NodeID, amount float64) error {
	c.holds++
	return c.Tx.Hold(path, amount)
}

// TestHopOpsReachDecorators: Probe, Hold and HoldUpTo take the hop form
// only on a bare *pcn.Tx. A decorator embedding one gets every operation
// through its own node-path methods, with the same outcome.
func TestHopOpsReachDecorators(t *testing.T) {
	net := lineNet(t)
	net.SetBalance(1, 2, 30, 170)
	tx, _ := net.Begin(0, 2, 80)
	c := &countingTx{Tx: tx}
	if held := HoldUpTo(c, line012, 80); held != 30 {
		t.Errorf("held = %v through the decorator, want bottleneck 30", held)
	}
	if c.probes != 1 || c.holds != 2 {
		t.Errorf("decorator saw %d probes and %d holds, want 1 and 2", c.probes, c.holds)
	}
	if _, err := Probe(c, line012); err != nil || c.probes != 2 {
		t.Errorf("Probe through the decorator: err %v, %d probes seen", err, c.probes)
	}
	if err := Hold(c, line012, 1); !errors.Is(err, pcn.ErrInsufficient) || c.holds != 3 {
		t.Errorf("Hold through the decorator: err %v, %d holds seen", err, c.holds)
	}
	msgs := tx.ProbeMessages()
	if _, err := Probe(tx, line012); err != nil || c.probes != 2 || tx.ProbeMessages() != msgs+4 {
		t.Errorf("Probe on the bare session: err %v, decorator saw %d probes, %d messages", err, c.probes, tx.ProbeMessages()-msgs)
	}
	tx.Abort()
}
