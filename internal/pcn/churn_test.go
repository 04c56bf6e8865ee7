package pcn

import (
	"errors"
	"math"
	"testing"

	"repro/internal/topo"
)

func TestCloseChannelRejectsNewHolds(t *testing.T) {
	n := lineNet(t)
	if err := n.SetChannelOpen(1, 2, false); err != nil {
		t.Fatal(err)
	}
	if n.IsChannelOpen(1, 2) {
		t.Error("channel reports open after close")
	}
	if got := n.Available(1, 2); got != 0 {
		t.Errorf("Available over closed channel = %v, want 0", got)
	}
	tx, err := n.Begin(0, 2, 10)
	if err != nil {
		t.Fatal(err)
	}
	path := []topo.NodeID{0, 1, 2}
	if err := tx.Hold(path, 10); !errors.Is(err, ErrInsufficient) {
		t.Errorf("hold over closed channel = %v, want ErrInsufficient", err)
	}
	info, err := tx.Probe(path)
	if err != nil {
		t.Fatal(err)
	}
	if info[0].Available != 100 {
		t.Errorf("open hop probes %v, want 100", info[0].Available)
	}
	if info[1].Available != 0 || info[1].ReverseAvailable != 0 {
		t.Errorf("closed hop probes %+v, want zero availability", info[1])
	}
	tx.Abort()

	// Reopen: frozen balances become spendable again.
	if err := n.SetChannelOpen(1, 2, true); err != nil {
		t.Fatal(err)
	}
	tx2, _ := n.Begin(0, 2, 10)
	if err := tx2.Hold(path, 10); err != nil {
		t.Fatalf("hold after reopen: %v", err)
	}
	if err := tx2.Commit(); err != nil {
		t.Fatal(err)
	}
}

func TestCloseChannelLetsInflightHoldsSettle(t *testing.T) {
	n := lineNet(t)
	path := []topo.NodeID{0, 1, 2}
	tx, _ := n.Begin(0, 2, 30)
	if err := tx.Hold(path, 30); err != nil {
		t.Fatal(err)
	}
	if err := n.SetChannelOpen(1, 2, false); err != nil {
		t.Fatal(err)
	}
	before := n.TotalFunds()
	if err := tx.Commit(); err != nil {
		t.Fatalf("commit of pre-close hold: %v", err)
	}
	if after := n.TotalFunds(); math.Abs(after-before) > 1e-9 {
		t.Errorf("funds not conserved across close+commit: %v -> %v", before, after)
	}
	if got := n.Balance(2, 1); got != 130 {
		t.Errorf("reverse balance after commit = %v, want 130", got)
	}
}

func TestRebalanceEvensDirections(t *testing.T) {
	g := topo.New(2)
	g.MustAddChannel(0, 1)
	n := New(g)
	n.SetBalance(0, 1, 90, 10)
	moved, err := n.Rebalance(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if moved != 40 {
		t.Errorf("moved %v, want 40", moved)
	}
	if a, b := n.Balance(0, 1), n.Balance(1, 0); a != 50 || b != 50 {
		t.Errorf("balances after rebalance = %v/%v, want 50/50", a, b)
	}
	// Already balanced: nothing moves.
	moved, _ = n.Rebalance(0, 1)
	if moved != 0 {
		t.Errorf("second rebalance moved %v", moved)
	}
}

func TestRebalanceRespectsHolds(t *testing.T) {
	g := topo.New(2)
	g.MustAddChannel(0, 1)
	n := New(g)
	n.SetBalance(0, 1, 100, 0)
	tx, _ := n.Begin(0, 1, 80)
	if err := tx.Hold([]topo.NodeID{0, 1}, 80); err != nil {
		t.Fatal(err)
	}
	moved, err := n.Rebalance(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Target is 50/50 but 80 is held on 0→1: only 20 may move.
	if moved != 20 {
		t.Errorf("moved %v, want 20", moved)
	}
	if got := n.Balance(0, 1); got != 80 {
		t.Errorf("held direction reduced to %v, below its holds", got)
	}
	if err := tx.Commit(); err != nil {
		t.Fatalf("commit after rebalance: %v", err)
	}
}

func TestFundChannelRespectsHolds(t *testing.T) {
	g := topo.New(2)
	g.MustAddChannel(0, 1)
	n := New(g)
	n.SetBalance(0, 1, 100, 100)
	tx, _ := n.Begin(0, 1, 50)
	if err := tx.Hold([]topo.NodeID{0, 1}, 50); err != nil {
		t.Fatal(err)
	}
	// Funding below the outstanding hold clamps to the hold.
	if err := n.FundChannel(0, 1, 10, 10); err != nil {
		t.Fatal(err)
	}
	if got := n.Balance(0, 1); got != 50 {
		t.Errorf("held direction funded to %v, want clamp at 50", got)
	}
	if got := n.Balance(1, 0); got != 10 {
		t.Errorf("free direction funded to %v, want 10", got)
	}
	if err := tx.Commit(); err != nil {
		t.Fatalf("commit after funding: %v", err)
	}
	if got := n.Balance(0, 1); got != 0 {
		t.Errorf("balance after commit = %v, want 0 (never negative)", got)
	}
	if err := n.FundChannel(0, 1, -1, 0); err == nil {
		t.Error("negative funding accepted")
	}
}

func TestRebalanceClosedChannelNoop(t *testing.T) {
	g := topo.New(2)
	g.MustAddChannel(0, 1)
	n := New(g)
	n.SetBalance(0, 1, 90, 10)
	n.SetChannelOpen(0, 1, false)
	moved, err := n.Rebalance(0, 1)
	if err != nil || moved != 0 {
		t.Errorf("rebalance of closed channel = %v, %v; want 0, nil", moved, err)
	}
}

func TestChurnErrorsOnMissingChannel(t *testing.T) {
	n := lineNet(t)
	if err := n.SetChannelOpen(0, 2, false); err == nil {
		t.Error("SetChannelOpen on missing channel succeeded")
	}
	if _, err := n.Rebalance(0, 2); err == nil {
		t.Error("Rebalance on missing channel succeeded")
	}
	if n.IsChannelOpen(0, 2) {
		t.Error("missing channel reports open")
	}
}

// TestChurnConcurrentWithPayments interleaves open/close/rebalance
// toggles with payment sessions on the same channels: four sessions
// hold, the churn runs while their holds stand, then they commit or
// abort. No direction ever holds more than its balance, and funds are
// conserved once everything settles.
func TestChurnConcurrentWithPayments(t *testing.T) {
	g := topo.New(4)
	g.MustAddChannel(0, 1)
	g.MustAddChannel(1, 2)
	g.MustAddChannel(2, 3)
	n := New(g)
	for _, e := range [][2]topo.NodeID{{0, 1}, {1, 2}, {2, 3}} {
		if err := n.SetBalance(e[0], e[1], 1000, 1000); err != nil {
			t.Fatal(err)
		}
	}
	before := n.TotalFunds()
	path := []topo.NodeID{0, 1, 2, 3}
	var txs [4]*Tx
	for i := 0; i < 300; i++ {
		for w := range txs {
			tx, err := n.Begin(0, 3, 1)
			if err != nil {
				t.Fatal(err)
			}
			_ = tx.Hold(path, 1) // rejected while 1–2 is closed
			txs[w] = tx
		}
		if i < 200 {
			n.SetChannelOpen(1, 2, i%2 == 0)
			n.Rebalance(0, 1)
			n.Rebalance(2, 3)
		} else {
			n.SetChannelOpen(1, 2, true)
		}
		for _, c := range n.chans {
			if c.held[0] > c.bal[0] || c.held[1] > c.bal[1] {
				t.Fatalf("round %d: holds %v exceed balances %v", i, c.held, c.bal)
			}
		}
		for _, tx := range txs {
			settle := tx.Abort
			if tx.PathsUsed() > 0 && i%2 == 0 {
				settle = tx.Commit
			}
			if err := settle(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if after := n.TotalFunds(); math.Abs(after-before) > 1e-6 {
		t.Errorf("funds not conserved under churn: %v -> %v", before, after)
	}
}

// TestScaleFee: the fee-war hook multiplies both directions' schedules
// and rejects degenerate factors.
func TestScaleFee(t *testing.T) {
	n := lineNet(t)
	if err := n.SetFee(0, 1, FeeSchedule{Base: 2, Rate: 0.01}); err != nil {
		t.Fatal(err)
	}
	if err := n.SetFee(1, 0, FeeSchedule{Base: 1, Rate: 0.02}); err != nil {
		t.Fatal(err)
	}
	if err := n.ScaleFee(0, 1, 5); err != nil {
		t.Fatal(err)
	}
	if got := n.Fee(0, 1); got.Base != 10 || got.Rate != 0.05 {
		t.Errorf("forward fee after scale = %+v", got)
	}
	if got := n.Fee(1, 0); got.Base != 5 || math.Abs(got.Rate-0.1) > 1e-12 {
		t.Errorf("reverse fee after scale = %+v", got)
	}
	for _, factor := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		if err := n.ScaleFee(0, 1, factor); err == nil {
			t.Errorf("factor %v accepted", factor)
		}
	}
	if err := n.ScaleFee(0, 3, 2); err == nil {
		t.Error("nonexistent channel accepted")
	}
}
