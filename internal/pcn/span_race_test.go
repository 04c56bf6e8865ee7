package pcn

import (
	"math"
	"sync"
	"testing"

	"repro/internal/topo"
)

// spanFixture builds a funded line network with one suspended session
// holding amount across the full path.
func spanFixture(t *testing.T, amount float64) (*Network, *Tx) {
	t.Helper()
	g := topo.Line(4)
	net := New(g)
	for _, e := range g.Channels() {
		if err := net.SetBalance(e.A, e.B, 100, 100); err != nil {
			t.Fatal(err)
		}
	}
	tx, err := net.Begin(0, 3, amount)
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Hold([]topo.NodeID{0, 1, 2, 3}, amount); err != nil {
		t.Fatal(err)
	}
	tx.DeferCommit()
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if !tx.Suspended() {
		t.Fatal("deferred commit did not suspend the session")
	}
	return net, tx
}

// TestExpireResumeRaceExactlyOnce hammers the span claim under the
// race detector: for each suspended session, one goroutine resumes
// while another expires, concurrently. Exactly one must win —
// claiming the span and settling the funds — while the loser observes
// ErrNotSuspended; whichever way the race falls, total funds are
// conserved and no escrow is left behind.
func TestExpireResumeRaceExactlyOnce(t *testing.T) {
	const trials = 200
	for trial := 0; trial < trials; trial++ {
		net, tx := spanFixture(t, 10)
		total := net.TotalFunds()

		var (
			wg        sync.WaitGroup
			resumeErr error
			resumeOK  bool
			expireErr error
			start     = make(chan struct{})
		)
		wg.Add(2)
		go func() {
			defer wg.Done()
			<-start
			resumeOK, resumeErr = tx.Resume()
		}()
		go func() {
			defer wg.Done()
			<-start
			expireErr = tx.Expire()
		}()
		close(start)
		wg.Wait()

		resumeWon := resumeErr == nil
		expireWon := expireErr == nil
		if resumeWon == expireWon {
			t.Fatalf("trial %d: want exactly one winner, got resume(ok=%v,err=%v) expire(err=%v)",
				trial, resumeOK, resumeErr, expireErr)
		}
		if resumeErr != nil && resumeErr != ErrNotSuspended {
			t.Fatalf("trial %d: losing Resume returned %v, want ErrNotSuspended", trial, resumeErr)
		}
		if expireErr != nil && expireErr != ErrNotSuspended {
			t.Fatalf("trial %d: losing Expire returned %v, want ErrNotSuspended", trial, expireErr)
		}
		if tx.Suspended() {
			t.Fatalf("trial %d: session still suspended after the race", trial)
		}
		if got := net.TotalFunds(); math.Abs(got-total) > 1e-9 {
			t.Fatalf("trial %d: total funds drifted %v -> %v", trial, total, got)
		}
		// The settled session is terminal: both operations now refuse.
		if _, err := tx.Resume(); err != ErrNotSuspended {
			t.Fatalf("trial %d: second Resume returned %v", trial, err)
		}
		if err := tx.Expire(); err != ErrNotSuspended {
			t.Fatalf("trial %d: second Expire returned %v", trial, err)
		}
		if resumeWon && resumeOK {
			// A winning resume on an intact path must have moved the
			// amount to the receiver side of the last hop.
			if got := net.Balance(3, 2); math.Abs(got-110) > 1e-9 {
				t.Fatalf("trial %d: receiver-side balance %v after commit, want 110", trial, got)
			}
		}
		if expireWon {
			// A winning expiry must have released every hold in place.
			if got := net.Balance(0, 1); math.Abs(got-100) > 1e-9 {
				t.Fatalf("trial %d: sender-side balance %v after expiry, want 100", trial, got)
			}
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
