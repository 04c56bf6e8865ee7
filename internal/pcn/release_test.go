package pcn

import (
	"reflect"
	"testing"

	"repro/internal/topo"
)

// TestReleaseTxResetsSession walks the release contract. A session
// that outgrew every arena's inline array, deferred its commit, was
// suspended and resumed, paid fees and charged latency is released; the
// next Begin must hand back a session that reads in every accessor as a
// fresh one does, behaves as one (its commit settles at once), and keeps
// the arenas' grown capacity.
func TestReleaseTxResetsSession(t *testing.T) {
	n, path := longLineNet(t)
	for _, e := range n.Graph().Channels() {
		if err := n.SetFee(e.A, e.B, FeeSchedule{Base: 0.01, Rate: 0.001}); err != nil {
			t.Fatal(err)
		}
	}
	setRTT(n, 0.002)
	last := path[len(path)-1]

	tx, err := n.Begin(0, last, 10)
	if err != nil {
		t.Fatal(err)
	}
	tx.DeferCommit()
	for i := 0; i < 3; i++ {
		if _, err := tx.Probe(path); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2; i++ {
		if err := tx.Hold(path, 5); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil || !tx.Suspended() {
		t.Fatalf("deferred commit: err %v, suspended %v", err, tx.Suspended())
	}
	if ok, err := tx.Resume(); err != nil || !ok {
		t.Fatalf("Resume = (%v, %v), want (true, nil)", ok, err)
	}
	if tx.FeesPaid() == 0 || tx.ProbeLatencyNanos() == 0 || tx.CommitLatencyNanos() == 0 {
		t.Fatalf("fees %v, probe latency %v, commit latency %v: want all non-zero",
			tx.FeesPaid(), tx.ProbeLatencyNanos(), tx.CommitLatencyNanos())
	}
	caps := [3]int{cap(tx.hops), cap(tx.infos), cap(tx.holds)}
	inline := [3]int{len(tx.hopsInline), len(tx.infosInline), len(tx.holdsInline)}
	for i := range caps {
		if caps[i] <= inline[i] {
			t.Fatalf("arena %d has capacity %d, want it grown past its inline %d", i, caps[i], inline[i])
		}
	}
	ReleaseTx(tx)

	next, err := n.Begin(1, 5, 3)
	if err != nil {
		t.Fatal(err)
	}
	fresh := &Tx{net: n, sender: 1, receiver: 5, demand: 3}
	if got, want := accessors(next), accessors(fresh); got != want {
		t.Fatalf("recycled session reads %+v, want a fresh one's %+v", got, want)
	}
	if next != tx {
		t.Fatal("Begin after ReleaseTx did not reuse the released session")
	}
	if got := [3]int{cap(next.hops), cap(next.infos), cap(next.holds)}; got != caps {
		t.Fatalf("recycled arenas have capacity %v, want %v kept", got, caps)
	}
	if len(next.hops)+len(next.infos) != 0 {
		t.Fatalf("recycled arenas hold %d hops, %d results; want empty", len(next.hops), len(next.infos))
	}
	// No DeferCommit carried over: the commit settles at once.
	short := []topo.NodeID{1, 2, 3, 4, 5}
	before := n.Balance(1, 2)
	if err := next.Hold(short, 3); err != nil {
		t.Fatal(err)
	}
	if err := next.Commit(); err != nil || next.Suspended() {
		t.Fatalf("commit on the recycled session: err %v, suspended %v", err, next.Suspended())
	}
	if got := n.Balance(1, 2); got != before-3 {
		t.Fatalf("balance 1→2 %v after the recycled session's commit, want %v", got, before-3)
	}
	ReleaseTx(next)
}

// TestReleaseTxZeroesEveryField checks ReleaseTx's field-wise reset by
// reflection, so a field added to Tx later fails here until the reset
// covers it. A session that sets every field it can — a non-zero
// sender, fees, latency, a deferred commit resumed, every arena grown
// — is released, and then every field reads zero except the four
// arenas, which are empty, and the inline arrays of plain values
// behind them. The inline hold record references hop arrays, so it
// must read zero too.
func TestReleaseTxZeroesEveryField(t *testing.T) {
	n, path := longLineNet(t)
	for _, e := range n.Graph().Channels() {
		if err := n.SetFee(e.A, e.B, FeeSchedule{Base: 0.01, Rate: 0.001}); err != nil {
			t.Fatal(err)
		}
	}
	setRTT(n, 0.002)
	path = path[1:]
	tx, err := n.Begin(path[0], path[len(path)-1], 10)
	if err != nil {
		t.Fatal(err)
	}
	tx.DeferCommit()
	for i := 0; i < 3; i++ {
		if _, err := tx.Probe(path); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2; i++ {
		if err := tx.Hold(path, 5); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if ok, err := tx.Resume(); err != nil || !ok {
		t.Fatalf("Resume = (%v, %v), want (true, nil)", ok, err)
	}
	arenas := map[string]bool{"holds": true, "hops": true, "infos": true}
	stale := map[string]bool{"hopsInline": true, "infosInline": true}
	// Zero before the release too: a suspended session panics, by
	// contract; and a recycled session's hold arena may have left its
	// inline record before this session began.
	mayBeZero := map[string]bool{"suspended": true, "holdsInline": true}
	v := reflect.ValueOf(tx).Elem()
	for i := range v.NumField() {
		name := v.Type().Field(i).Name
		if !arenas[name] && !stale[name] && !mayBeZero[name] && v.Field(i).IsZero() {
			t.Fatalf("field %s is zero before the release, so the check below cannot see it reset", name)
		}
	}
	ReleaseTx(tx)
	for i := range v.NumField() {
		f, name := v.Field(i), v.Type().Field(i).Name
		switch {
		case arenas[name]:
			if f.Len() != 0 {
				t.Errorf("arena %s has length %d after ReleaseTx, want 0", name, f.Len())
			}
		case stale[name]:
		case !f.IsZero():
			t.Errorf("field %s reads %v after ReleaseTx, want zero", name, f)
		}
	}
}

// txAccessors is everything a session reports through its methods.
type txAccessors struct {
	graph                        *topo.Graph
	sender, receiver             topo.NodeID
	demand, fees, held           float64
	probeMsgs, probeOps, commits int
	paths                        int
	probeLat, commitLat          int64
	finished, suspended          bool
}

func accessors(tx *Tx) txAccessors {
	return txAccessors{
		graph: tx.Graph(), sender: tx.Sender(), receiver: tx.Receiver(),
		demand: tx.Demand(), fees: tx.FeesPaid(), held: tx.HeldTotal(),
		probeMsgs: tx.ProbeMessages(), probeOps: tx.ProbeOps(), commits: tx.CommitMessages(),
		paths: tx.PathsUsed(), probeLat: tx.ProbeLatencyNanos(), commitLat: tx.CommitLatencyNanos(),
		finished: tx.Finished(), suspended: tx.Suspended(),
	}
}

// TestReleaseTxKeepsLiveResults checks that a released session's reuse
// touches no other session's memory: a probe result held by a live
// session reads unchanged while a second session is released and its
// recycled successor probes, holds and commits over the same hops.
func TestReleaseTxKeepsLiveResults(t *testing.T) {
	n, path := longLineNet(t)
	last := path[len(path)-1]
	live, err := n.Begin(0, last, 1)
	if err != nil {
		t.Fatal(err)
	}
	info, err := live.Probe(path)
	if err != nil {
		t.Fatal(err)
	}
	want := append([]HopInfo(nil), info...)
	for round := 0; round < 3; round++ {
		tx, err := n.Begin(0, last, 100)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tx.Probe(path); err != nil {
			t.Fatal(err)
		}
		if err := tx.Hold(path, 100); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		ReleaseTx(tx)
	}
	for i := range want {
		if info[i] != want[i] {
			t.Fatalf("live probe result hop %d reads %+v, was %+v", i, info[i], want[i])
		}
	}
	if err := live.Abort(); err != nil {
		t.Fatal(err)
	}
	ReleaseTx(live)
}

// TestReleaseTxRefusesLiveSessions checks that ReleaseTx panics on a
// session whose holds still stand — unfinished, or suspended between a
// deferred commit and its resume — and on a second release.
func TestReleaseTxRefusesLiveSessions(t *testing.T) {
	n := lineNet(t)
	path := []topo.NodeID{0, 1, 2}
	unfinished, err := n.Begin(0, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := unfinished.Hold(path, 1); err != nil {
		t.Fatal(err)
	}
	suspended, err := n.Begin(0, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	suspended.DeferCommit()
	if err := suspended.Hold(path, 1); err != nil {
		t.Fatal(err)
	}
	if err := suspended.Commit(); err != nil {
		t.Fatal(err)
	}
	released, err := n.Begin(0, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := released.Abort(); err != nil {
		t.Fatal(err)
	}
	ReleaseTx(released)
	for name, tx := range map[string]*Tx{"unfinished": unfinished, "suspended": suspended, "released": released} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("ReleaseTx of a %s session did not panic", name)
				}
			}()
			ReleaseTx(tx)
		}()
	}
	if err := unfinished.Abort(); err != nil {
		t.Fatal(err)
	}
	if _, err := suspended.Resume(); err != nil {
		t.Fatal(err)
	}
	if got := n.Available(0, 1); got != 99 {
		t.Fatalf("available 0→1 = %v after settling, want 99 (one unit committed)", got)
	}
}
