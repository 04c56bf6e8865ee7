package pcn

import (
	"testing"
	"unsafe"

	"repro/internal/topo"
)

// TestProbeAllocs pins Tx.Probe's and Tx.ProbeHops's steady-state
// allocation count at zero. The hop resolution uses the session's hop
// arena, and the result is appended to its probe-result arena, whose growth is
// amortised over the session — so a regression here means a probe
// started allocating per-call state again (the sequential elephant
// loop probes thousands of times per simulated second).
func TestProbeAllocs(t *testing.T) {
	n := lineNet(t)
	tx, err := n.Begin(0, 3, 10)
	if err != nil {
		t.Fatal(err)
	}
	path := []topo.NodeID{0, 1, 2, 3}
	if _, err := tx.Probe(path); err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(200, func() {
		if _, err := tx.Probe(path); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Fatalf("Tx.Probe allocates %v/op in steady state, want 0", avg)
	}
	hp := hopPath(n.Graph(), path)
	if avg := testing.AllocsPerRun(200, func() {
		if _, err := tx.ProbeHops(hp); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Fatalf("Tx.ProbeHops allocates %v/op in steady state, want 0", avg)
	}
}

// TestPaymentAllocs pins what one whole payment allocates, the engine's
// per-payment cost: nothing. A payment over a short path fits the Tx's
// inline arrays — the hop arena holds the probe's and the hold's hops,
// the hold record has its own, and the probe result lands in the
// probe-result arena — so Probe, Hold and Commit
// allocate nothing, and a session that is not released costs its share
// of the network's session chunk, well under one allocation. A released
// session is drawn again by the next Begin with the arenas it grew, so
// even a payment that outgrows every inline array allocates nothing
// once one like it has run.
func TestPaymentAllocs(t *testing.T) {
	short, shortPath := lineNet(t), []topo.NodeID{0, 1, 2, 3}
	long, longPath := longLineNet(t)
	for _, tc := range []struct {
		name          string
		net           *Network
		path          []topo.NodeID
		probes, holds int
		release       bool
		hops          bool // ProbeHops and HoldHops over the path's hop form
	}{
		{"hold-commit", short, shortPath, 0, 1, false, false},
		{"probe-hold-commit", short, shortPath, 1, 1, false, false},
		{"probe-hold-commit-release", short, shortPath, 1, 1, true, false},
		// 23 hops, 3 probes and 2 holds outgrow the hop, probe-result
		// and hold arenas' inline arrays.
		{"outgrown-release", long, longPath, 3, 2, true, false},
		{"hops-probe-hold-commit-release", short, shortPath, 1, 1, true, true},
		{"hops-outgrown-release", long, longPath, 3, 2, true, true},
	} {
		last := tc.path[len(tc.path)-1]
		hp := hopPath(tc.net.Graph(), tc.path)
		avg := testing.AllocsPerRun(100, func() {
			tx, err := tc.net.Begin(0, last, 0.1)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < tc.probes; i++ {
				if tc.hops {
					_, err = tx.ProbeHops(hp)
				} else {
					_, err = tx.Probe(tc.path)
				}
				if err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < tc.holds; i++ {
				if tc.hops {
					err = tx.HoldHops(hp, 0.1/float64(tc.holds))
				} else {
					err = tx.Hold(tc.path, 0.1/float64(tc.holds))
				}
				if err != nil {
					t.Fatal(err)
				}
			}
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
			if tc.release {
				ReleaseTx(tx)
			}
		})
		if avg != 0 {
			t.Errorf("%s: %v allocations per payment, want 0", tc.name, avg)
		}
	}
}

// longLineNet is a 24-node line funded far beyond any test payment,
// and the path along all of it: 23 hops, more than any of a Tx's
// inline arrays holds.
func longLineNet(t *testing.T) (*Network, []topo.NodeID) {
	t.Helper()
	const nodes = 24
	g := topo.Line(nodes)
	n := New(g)
	for _, e := range g.Channels() {
		if err := n.SetBalance(e.A, e.B, 1e9, 1e9); err != nil {
			t.Fatal(err)
		}
	}
	path := make([]topo.NodeID, nodes)
	for i := range path {
		path[i] = topo.NodeID(i)
	}
	return n, path
}

// TestArenaGrowthKeepsEarlierResults drives one session far past its
// inline arrays — long paths, many probes, many holds, one failed hold
// between them — and checks that growing an arena never disturbs what
// it already handed out: every probe result reads as it did when it
// was returned, and the commit moves exactly the held amounts and
// charges exactly the held hops.
func TestArenaGrowthKeepsEarlierResults(t *testing.T) {
	const nodes = 24
	g := topo.Line(nodes)
	n := New(g)
	for i, e := range g.Channels() {
		if err := n.SetBalance(e.A, e.B, 100+float64(i), 50); err != nil {
			t.Fatal(err)
		}
	}
	path := make([]topo.NodeID, nodes)
	for i := range path {
		path[i] = topo.NodeID(i)
	}
	tx, err := n.Begin(0, nodes-1, 40)
	if err != nil {
		t.Fatal(err)
	}
	var (
		results [][]HopInfo
		want    [][]HopInfo
	)
	probe := func() {
		info, err := tx.Probe(path)
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, info)
		want = append(want, append([]HopInfo(nil), info...))
	}
	for i := 0; i < 8; i++ {
		probe()
		if err := tx.Hold(path, 5); err != nil {
			t.Fatalf("hold %d: %v", i, err)
		}
		if i == 3 {
			if err := tx.Hold(path, 1000); err != ErrInsufficient {
				t.Fatalf("oversized hold: %v, want ErrInsufficient", err)
			}
		}
	}
	probe()
	for i := range results {
		for h := range results[i] {
			if results[i][h] != want[i][h] {
				t.Fatalf("probe %d hop %d reads %+v, was %+v when returned", i, h, results[i][h], want[i][h])
			}
		}
	}
	if got := want[8][0].Available; got != 100-40 {
		t.Fatalf("last probe sees %v on the first hop, want 60 after 8 holds of 5", got)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	hops := nodes - 1
	if got, wantMsgs := tx.CommitMessages(), 2*hops*(8+1)+2*hops*8; got != wantMsgs {
		t.Fatalf("%d commit messages, want %d (9 holds tried, 8 settled)", got, wantMsgs)
	}
	for i, e := range g.Channels() {
		if got := n.Balance(e.A, e.B); got != 100+float64(i)-40 {
			t.Fatalf("channel %d: balance %v, want %v", i, got, 100+float64(i)-40)
		}
		if got := n.Balance(e.B, e.A); got != 90 {
			t.Fatalf("channel %d: reverse balance %v, want 90", i, got)
		}
	}
}

// TestTxSize keeps the Tx, inline arrays included, within 512 bytes, so
// that an inline array grown past its use does not silently double what
// a network's session chunks cost.
func TestTxSize(t *testing.T) {
	if size := unsafe.Sizeof(Tx{}); size > 512 {
		t.Fatalf("Tx is %d bytes, want at most 512", size)
	}
}
