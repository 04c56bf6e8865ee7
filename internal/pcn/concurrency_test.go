package pcn

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/topo"
)

// buildDense returns a small complete network funded with bal in each
// direction of every channel.
func buildDense(t testing.TB, n int, bal float64) *Network {
	t.Helper()
	g := topo.New(n)
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			g.MustAddChannel(topo.NodeID(a), topo.NodeID(b))
		}
	}
	net := New(g)
	for _, e := range g.Channels() {
		if err := net.SetBalance(e.A, e.B, bal, bal); err != nil {
			t.Fatal(err)
		}
	}
	return net
}

// TestConcurrentHoldsNeverOverbook: sixteen sessions open at once, each
// holding 30 on one balance of 100 before any settles, reserve at most
// the balance — exactly the three holds it covers — and their commits
// move just that.
func TestConcurrentHoldsNeverOverbook(t *testing.T) {
	g := topo.Line(2)
	net := New(g)
	const bal = 100.0
	if err := net.SetBalance(0, 1, bal, 0); err != nil {
		t.Fatal(err)
	}
	var (
		held float64
		txs  []*Tx
	)
	for range 16 {
		tx, err := net.Begin(0, 1, 30)
		if err != nil {
			t.Fatal(err)
		}
		switch err := tx.Hold([]topo.NodeID{0, 1}, 30); {
		case err == nil:
			held += 30
			txs = append(txs, tx)
		case errors.Is(err, ErrInsufficient):
			if err := tx.Abort(); err != nil {
				t.Fatal(err)
			}
		default:
			t.Fatal(err)
		}
	}
	if want := math.Floor(bal/30) * 30; held != want {
		t.Errorf("sessions held %v on a %v balance, want the full feasible %v", held, bal, want)
	}
	for _, tx := range txs {
		if err := tx.Commit(); err != nil {
			t.Error(err)
		}
	}
	if got := net.Balance(1, 0); math.Abs(got-held) > 1e-9 {
		t.Errorf("committed balance = %v, want %v", got, held)
	}
}

// TestSnapshotRestoreDuringTraffic interleaves Restore, Snapshot and
// TotalFunds with payments: each Restore brings back the snapshot's
// balances, with no hold left, whatever the payments since moved.
func TestSnapshotRestoreDuringTraffic(t *testing.T) {
	net := buildDense(t, 6, 500)
	snap := net.Snapshot()
	total := net.TotalFunds()
	rng := rand.New(rand.NewSource(100))
	for i := 0; i < 50; i++ {
		for range 4 {
			s := topo.NodeID(rng.Intn(6))
			r := topo.NodeID((int(s) + 1 + rng.Intn(5)) % 6)
			tx, err := net.Begin(s, r, 1)
			if err != nil {
				t.Fatal(err)
			}
			if err := tx.Hold([]topo.NodeID{s, r}, 1); err != nil {
				t.Fatal(err)
			}
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
		}
		if err := net.Restore(snap); err != nil {
			t.Fatal(err)
		}
		if got := net.TotalFunds(); got != total {
			t.Fatalf("round %d: %v funds after Restore, want %v", i, got, total)
		}
		if got := net.Snapshot(); !slices.Equal(got, snap) {
			t.Fatalf("round %d: Restore left balances %v, want %v", i, got, snap)
		}
		for _, c := range net.chans {
			if c.held != [2]float64{} {
				t.Fatalf("round %d: Restore left holds %v", i, c.held)
			}
		}
	}
}
