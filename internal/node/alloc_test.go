package node

import (
	"testing"
	"unsafe"

	"repro/internal/topo"
)

// raceEnabled is set under the race detector (race_test.go), whose
// instrumentation makes allocation counts say nothing.
var raceEnabled bool

// TestRoundTripAllocs pins what a payment costs a warm node — its
// connections dialled, its encode and read buffers grown, its call
// slots made: Probe, Hold, Commit and Abort allocate nothing, on the
// sender or on the relays, so a whole payment costs only its Session.
func TestRoundTripAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	const runs = 50
	nodes := startLine(t, 1e9)
	sender, path := nodes[0], []topo.NodeID{0, 1, 2}
	sessions := func() []*Session {
		ss := make([]*Session, runs+1) // AllocsPerRun adds a warm-up run
		for i := range ss {
			s, err := sender.NewSession(2, 1)
			if err != nil {
				t.Fatal(err)
			}
			ss[i] = s
		}
		return ss
	}
	// perOp measures op once on each session.
	perOp := func(name string, ss []*Session, op func(*Session) error) {
		t.Helper()
		i := 0
		allocs := testing.AllocsPerRun(runs, func() {
			if err := op(ss[i]); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			i++
		})
		if allocs != 0 {
			t.Errorf("%s: %v allocations, want 0", name, allocs)
		}
	}
	probe := func(s *Session) error { _, err := s.Probe(path); return err }
	hold := func(s *Session) error { return s.Hold(path, 1) }
	commit := func(s *Session) error { return s.Commit() }
	abort := func(s *Session) error { return s.Abort() }

	for _, ss := range [][]*Session{sessions(), sessions()} { // warm both ways
		for _, s := range ss {
			if err := probe(s); err != nil {
				t.Fatal(err)
			}
			if err := hold(s); err != nil {
				t.Fatal(err)
			}
			if err := commit(s); err != nil {
				t.Fatal(err)
			}
		}
	}

	committed, aborted := sessions(), sessions()
	perOp("Probe", committed, probe)
	perOp("Hold", committed, hold)
	perOp("Commit", committed, commit)
	perOp("Hold", aborted, hold)
	perOp("Abort", aborted, abort)

	allocs := testing.AllocsPerRun(runs, func() {
		s, err := sender.NewSession(2, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, op := range []func(*Session) error{probe, hold, commit} {
			if err := op(s); err != nil {
				t.Fatal(err)
			}
		}
	})
	if allocs != 1 {
		t.Errorf("a whole payment: %v allocations, want 1 (its Session)", allocs)
	}
}

// TestSessionSize keeps the Session, inline arrays included, within one
// 512-byte allocation: the allocator takes a slower path for pointerful
// objects above 512 bytes, and every payment pays for its Session.
func TestSessionSize(t *testing.T) {
	if size := unsafe.Sizeof(Session{}); size > 512 {
		t.Fatalf("Session is %d bytes, want at most 512", size)
	}
}
