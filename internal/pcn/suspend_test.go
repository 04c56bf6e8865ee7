package pcn

import (
	"errors"
	"math"
	"testing"

	"repro/internal/topo"
)

// TestDeferCommitSuspendResume walks the hold-span state machine:
// DeferCommit + Commit suspends (funds locked, nothing moved), Resume
// settles (funds move, CONFIRM messages and fees accounted exactly
// once).
func TestDeferCommitSuspendResume(t *testing.T) {
	n := lineNet(t)
	path := []topo.NodeID{0, 1, 2}
	tx, err := n.Begin(0, 2, 30)
	if err != nil {
		t.Fatal(err)
	}
	tx.DeferCommit()
	if err := tx.Hold(path, 30); err != nil {
		t.Fatal(err)
	}
	msgsAtHold := tx.CommitMessages()
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if !tx.Suspended() || !tx.Finished() {
		t.Fatalf("after deferred commit: suspended=%v finished=%v, want true/true", tx.Suspended(), tx.Finished())
	}
	// Nothing settled yet: balances unmoved, funds locked, no CONFIRM
	// messages or fees.
	if got := n.Balance(0, 1); got != 100 {
		t.Errorf("balance moved during span: bal(0→1) = %v, want 100", got)
	}
	if got := n.Available(0, 1); got != 70 {
		t.Errorf("available during span = %v, want 70 (hold locked)", got)
	}
	if tx.CommitMessages() != msgsAtHold {
		t.Errorf("CONFIRM messages counted before Resume: %d -> %d", msgsAtHold, tx.CommitMessages())
	}
	// A second Commit (or an Abort) on the suspended session is refused.
	if err := tx.Commit(); !errors.Is(err, ErrFinished) {
		t.Errorf("Commit on suspended session = %v, want ErrFinished", err)
	}
	if err := tx.Abort(); !errors.Is(err, ErrFinished) {
		t.Errorf("Abort on suspended session = %v, want ErrFinished", err)
	}

	committed, err := tx.Resume()
	if err != nil || !committed {
		t.Fatalf("Resume = (%v, %v), want (true, nil)", committed, err)
	}
	if got := n.Balance(0, 1); got != 70 {
		t.Errorf("bal(0→1) after resume = %v, want 70", got)
	}
	if got := n.Balance(1, 0); got != 130 {
		t.Errorf("bal(1→0) after resume = %v, want 130", got)
	}
	if tx.CommitMessages() != msgsAtHold+4 {
		t.Errorf("CONFIRM messages after resume = %d, want %d", tx.CommitMessages(), msgsAtHold+4)
	}
	if tx.Suspended() {
		t.Error("session still suspended after Resume")
	}
	if _, err := tx.Resume(); !errors.Is(err, ErrNotSuspended) {
		t.Errorf("double Resume = %v, want ErrNotSuspended", err)
	}
}

// TestResumeAbortsOnClosedChannel pins the churn interaction: a
// suspended payment whose held channel closes mid-span aborts at
// Resume — holds released, balances frozen in place.
func TestResumeAbortsOnClosedChannel(t *testing.T) {
	n := lineNet(t)
	path := []topo.NodeID{0, 1, 2}
	tx, _ := n.Begin(0, 2, 40)
	tx.DeferCommit()
	if err := tx.Hold(path, 40); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := n.SetChannelOpen(1, 2, false); err != nil {
		t.Fatal(err)
	}
	committed, err := tx.Resume()
	if err != nil {
		t.Fatal(err)
	}
	if committed {
		t.Fatal("suspended payment committed across a closed channel")
	}
	// Every hold is released (the open hop too) and no balance moved.
	if got := n.Available(0, 1); got != 100 {
		t.Errorf("available(0→1) after span abort = %v, want 100 (hold released)", got)
	}
	if got := n.Balance(1, 2); got != 100 {
		t.Errorf("bal(1→2) after span abort = %v, want 100 (frozen)", got)
	}
	if tx.Suspended() {
		t.Error("session still suspended after aborting resume")
	}
}

// TestDeferredAbortIsImmediate checks that arming the seam does not
// delay failure: Abort on a defer-armed session releases holds
// immediately and the session never suspends.
func TestDeferredAbortIsImmediate(t *testing.T) {
	n := lineNet(t)
	tx, _ := n.Begin(0, 2, 25)
	tx.DeferCommit()
	if err := tx.Hold([]topo.NodeID{0, 1, 2}, 25); err != nil {
		t.Fatal(err)
	}
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}
	if tx.Suspended() {
		t.Error("aborted session reports suspended")
	}
	if got := n.Available(0, 1); got != 100 {
		t.Errorf("available after abort = %v, want 100", got)
	}
}

// offsetNet builds the diamond used by the self-offset tests: two
// 0→3 paths crossing the 1–2 channel in opposite directions.
//
//	0 ── 1 ── 2 ── 3     path A: 0→1→2→3 (uses 1→2)
//	 \   |     \  /      path B: 0→2→1→3 (uses 2→1)
//	  ───2      ──
//
// Every direction carries 10 except the contested reverse direction
// 2→1, which carries 0 — path B is only holdable against path A's
// credit.
func offsetNet(t *testing.T) *Network {
	t.Helper()
	g := topo.New(4)
	g.MustAddChannel(0, 1)
	g.MustAddChannel(1, 2)
	g.MustAddChannel(2, 3)
	g.MustAddChannel(0, 2)
	g.MustAddChannel(1, 3)
	n := New(g)
	for _, e := range g.Channels() {
		if err := n.SetBalance(e.A, e.B, 10, 0); err != nil {
			t.Fatal(err)
		}
	}
	return n
}

// TestHoldSelfOffsetCredit pins the LP offset-hold fix at the pcn
// layer: a session's hold crossing a channel in reverse of its own
// earlier hold may draw on that hold as credit — the funds materialise
// when the atomic commit applies the creator first — while other
// sessions see both directions as reserved.
func TestHoldSelfOffsetCredit(t *testing.T) {
	n := offsetNet(t)
	pathA := []topo.NodeID{0, 1, 2, 3}
	pathB := []topo.NodeID{0, 2, 1, 3}

	// Without the creator hold in place, the offset path is infeasible:
	// bal(2→1) = 0.
	probe, err := n.Begin(0, 3, 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := probe.Hold(pathB, 8); !errors.Is(err, ErrInsufficient) {
		t.Fatalf("offset path held without creator credit: %v", err)
	}
	if err := probe.Abort(); err != nil {
		t.Fatal(err)
	}

	tx, err := n.Begin(0, 3, 18)
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Hold(pathA, 10); err != nil {
		t.Fatal(err)
	}
	if err := tx.Hold(pathB, 8); err != nil {
		t.Fatalf("self-offset hold rejected: %v", err)
	}

	// A foreign session cannot borrow the credit: both directions of
	// the contested channel are reserved.
	other, _ := n.Begin(1, 2, 1)
	if err := other.Hold([]topo.NodeID{1, 2}, 1); !errors.Is(err, ErrInsufficient) {
		t.Errorf("forward over-reservation: %v", err)
	}
	if err := other.Abort(); err != nil {
		t.Fatal(err)
	}

	// Commit settles creator-first: A's 10 crosses 1→2, then B's 8
	// crosses back over the credit it created.
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if a, b := n.Balance(1, 2), n.Balance(2, 1); math.Abs(a-8) > 1e-9 || math.Abs(b-2) > 1e-9 {
		t.Errorf("contested channel post-commit = (%v, %v), want (8, 2)", a, b)
	}
	if got := n.Balance(0, 1); got != 0 {
		t.Errorf("bal(0→1) = %v, want 0", got)
	}
	if got := n.Balance(3, 2); got != 10 {
		t.Errorf("bal(3→2) = %v, want 10", got)
	}
	if got := n.Available(1, 2); math.Abs(got-8) > 1e-9 {
		t.Errorf("held funds not released: available(1→2) = %v, want 8", got)
	}
}

// TestHoldSelfOffsetAbortClean verifies the offset pair releases
// without moving funds on abort.
func TestHoldSelfOffsetAbortClean(t *testing.T) {
	n := offsetNet(t)
	tx, _ := n.Begin(0, 3, 16)
	if err := tx.Hold([]topo.NodeID{0, 1, 2, 3}, 10); err != nil {
		t.Fatal(err)
	}
	if err := tx.Hold([]topo.NodeID{0, 2, 1, 3}, 6); err != nil {
		t.Fatal(err)
	}
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}
	for _, e := range n.Graph().Channels() {
		if a, b := n.Balance(e.A, e.B), n.Balance(e.B, e.A); a != 10 || b != 0 {
			t.Errorf("abort moved funds on %d-%d: (%v, %v), want (10, 0)", e.A, e.B, a, b)
		}
		if got := n.Available(e.A, e.B); got != 10 {
			t.Errorf("holds not fully released on %d-%d: available = %v, want 10", e.A, e.B, got)
		}
	}
}

// TestExpireChargesSettleLatency pins the latency accounting of the
// expiry path: tearing a span down sends REVERSE legs, so the
// session's resume latency matches the held path's round-trip cost.
func TestExpireChargesSettleLatency(t *testing.T) {
	g := topo.Line(4)
	net := New(g)
	for _, e := range g.Channels() {
		if err := net.SetBalance(e.A, e.B, 100, 100); err != nil {
			t.Fatal(err)
		}
	}
	setRTT(net, 0.01)
	tx, err := net.Begin(0, 3, 10)
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Hold([]topo.NodeID{0, 1, 2, 3}, 10); err != nil {
		t.Fatal(err)
	}
	tx.DeferCommit()
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	want := tx.ResumeLatencyNanos()
	if want != 3*10_000_000 { // 3 hops × 10ms
		t.Fatalf("ResumeLatencyNanos = %d, want 30ms of REVERSE legs", want)
	}
	before := tx.CommitLatencyNanos()
	if err := tx.Expire(); err != nil {
		t.Fatal(err)
	}
	if got := tx.CommitLatencyNanos() - before; got != want {
		t.Errorf("expiry charged %dns, want %dns", got, want)
	}
}
