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
	path := []topo.NodeID{0, 1, 2}
	if held := HoldUpTo(tx, path, 50); held != 50 {
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
	path := []topo.NodeID{0, 1, 2}
	if held := HoldUpTo(tx, path, 80); held != 30 {
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
	if held := HoldUpTo(tx, []topo.NodeID{0, 1, 2}, 10); held != 0 {
		t.Errorf("held = %v on a dead path, want 0", held)
	}
	if held := HoldUpTo(tx, []topo.NodeID{0, 1, 2}, 0); held != 0 {
		t.Errorf("zero want should hold nothing, got %v", held)
	}
	tx.Abort()
}

func TestHoldUpToInvalidPath(t *testing.T) {
	net := lineNet(t)
	tx, _ := net.Begin(0, 2, 10)
	if held := HoldUpTo(tx, []topo.NodeID{0, 2}, 10); held != 0 {
		t.Errorf("held = %v over a missing channel, want 0", held)
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
