package pcn

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/topo"
)

// lineNet builds a 0-1-2-3 line with 100/100 balances per channel.
func lineNet(t *testing.T) *Network {
	t.Helper()
	g := topo.Line(4)
	n := New(g)
	for _, e := range g.Channels() {
		if err := n.SetBalance(e.A, e.B, 100, 100); err != nil {
			t.Fatal(err)
		}
	}
	return n
}

func TestFeeSchedule(t *testing.T) {
	f := FeeSchedule{Base: 2, Rate: 0.01}
	if got := f.Fee(100); got != 3 {
		t.Errorf("Fee(100) = %v, want 3", got)
	}
	if got := f.Fee(0); got != 0 {
		t.Errorf("Fee(0) = %v, want 0", got)
	}
	if got := f.Fee(-5); got != 0 {
		t.Errorf("Fee(-5) = %v, want 0", got)
	}
}

func TestSetAndGetBalance(t *testing.T) {
	n := lineNet(t)
	if got := n.Balance(0, 1); got != 100 {
		t.Errorf("Balance(0,1) = %v", got)
	}
	if err := n.SetBalance(0, 1, 70, 30); err != nil {
		t.Fatal(err)
	}
	if n.Balance(0, 1) != 70 || n.Balance(1, 0) != 30 {
		t.Errorf("directional balances = %v/%v, want 70/30", n.Balance(0, 1), n.Balance(1, 0))
	}
	if capacity(n, 0, 1) != 100 {
		t.Errorf("Capacity = %v, want 100", capacity(n, 0, 1))
	}
	if n.Balance(0, 3) != 0 {
		t.Error("missing channel should report zero balance")
	}
	if err := n.SetBalance(0, 3, 1, 1); err == nil {
		t.Error("SetBalance on missing channel should fail")
	}
	if err := n.SetBalance(0, 1, -1, 5); err == nil {
		t.Error("negative balance accepted")
	}
}

func TestSetFee(t *testing.T) {
	n := lineNet(t)
	fee := FeeSchedule{Rate: 0.02}
	if err := n.SetFee(1, 2, fee); err != nil {
		t.Fatal(err)
	}
	if got := n.Fee(1, 2); got != fee {
		t.Errorf("Fee(1,2) = %+v", got)
	}
	if got := n.Fee(2, 1); got != (FeeSchedule{}) {
		t.Errorf("reverse direction fee should be unset, got %+v", got)
	}
	if err := n.SetFee(0, 3, fee); err == nil {
		t.Error("SetFee on missing channel should fail")
	}
}

func TestBeginValidation(t *testing.T) {
	n := lineNet(t)
	if _, err := n.Begin(0, 0, 5); err == nil {
		t.Error("self-payment accepted")
	}
	if _, err := n.Begin(0, 3, 0); err == nil {
		t.Error("zero demand accepted")
	}
	if _, err := n.Begin(0, 3, -2); err == nil {
		t.Error("negative demand accepted")
	}
}

func TestProbe(t *testing.T) {
	n := lineNet(t)
	n.SetFee(0, 1, FeeSchedule{Rate: 0.01})
	tx, err := n.Begin(0, 3, 10)
	if err != nil {
		t.Fatal(err)
	}
	path := []topo.NodeID{0, 1, 2, 3}
	info, err := tx.Probe(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(info) != 3 {
		t.Fatalf("info len = %d", len(info))
	}
	if info[0].Available != 100 || info[0].Fee.Rate != 0.01 {
		t.Errorf("hop 0 info = %+v", info[0])
	}
	if tx.ProbeMessages() != 6 {
		t.Errorf("probe messages = %d, want 2*3", tx.ProbeMessages())
	}
}

// badPaths are sender-0 → receiver-3 paths on lineNet that Probe and
// Hold must reject with ErrBadPath, before touching any channel.
var badPaths = []struct {
	name string
	path []topo.NodeID
}{
	{"missing channel", []topo.NodeID{0, 2, 3}},
	{"missing last channel", []topo.NodeID{0, 1, 3}},
	{"not from sender", []topo.NodeID{1, 2, 3}},
	{"not to receiver", []topo.NodeID{0, 1, 2}},
	{"degenerate", []topo.NodeID{0}},
	{"empty", nil},
}

func TestProbeInvalidPath(t *testing.T) {
	n := lineNet(t)
	tx, _ := n.Begin(0, 3, 10)
	for _, tc := range badPaths {
		if _, err := tx.Probe(tc.path); !errors.Is(err, ErrBadPath) {
			t.Errorf("%s: Probe(%v) = %v, want ErrBadPath", tc.name, tc.path, err)
		}
	}
	if tx.ProbeMessages() != 0 {
		t.Errorf("rejected probes cost %d messages", tx.ProbeMessages())
	}
}

func TestHoldInvalidPath(t *testing.T) {
	n := lineNet(t)
	tx, _ := n.Begin(0, 3, 10)
	for _, tc := range badPaths {
		if err := tx.Hold(tc.path, 1); !errors.Is(err, ErrBadPath) {
			t.Errorf("%s: Hold(%v) = %v, want ErrBadPath", tc.name, tc.path, err)
		}
	}
	if tx.CommitMessages() != 0 || tx.HeldTotal() != 0 {
		t.Errorf("rejected holds cost %d messages, hold %v", tx.CommitMessages(), tx.HeldTotal())
	}
}

func TestHoldCommitMovesBalances(t *testing.T) {
	n := lineNet(t)
	total := n.TotalFunds()
	tx, _ := n.Begin(0, 3, 40)
	path := []topo.NodeID{0, 1, 2, 3}
	if err := tx.Hold(path, 40); err != nil {
		t.Fatal(err)
	}
	if got := n.Available(0, 1); got != 60 {
		t.Errorf("available after hold = %v, want 60", got)
	}
	if got := n.Balance(0, 1); got != 100 {
		t.Errorf("balance should be untouched before commit, got %v", got)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := n.Balance(0, 1); got != 60 {
		t.Errorf("balance(0→1) = %v, want 60", got)
	}
	if got := n.Balance(1, 0); got != 140 {
		t.Errorf("balance(1→0) = %v, want 140", got)
	}
	if got := n.TotalFunds(); math.Abs(got-total) > 1e-9 {
		t.Errorf("total funds changed: %v → %v", total, got)
	}
	if !tx.Finished() {
		t.Error("session should be finished")
	}
}

func TestHoldInsufficient(t *testing.T) {
	n := lineNet(t)
	n.SetBalance(1, 2, 5, 195)
	tx, _ := n.Begin(0, 3, 10)
	err := tx.Hold([]topo.NodeID{0, 1, 2, 3}, 10)
	if !errors.Is(err, ErrInsufficient) {
		t.Fatalf("err = %v, want ErrInsufficient", err)
	}
	// Nothing must be reserved after a failed hold.
	if got := n.Available(0, 1); got != 100 {
		t.Errorf("available(0,1) = %v, want 100 after failed hold", got)
	}
	if tx.HeldTotal() != 0 {
		t.Errorf("HeldTotal = %v, want 0", tx.HeldTotal())
	}
}

func TestAbortReleasesHolds(t *testing.T) {
	n := lineNet(t)
	tx, _ := n.Begin(0, 3, 50)
	if err := tx.Hold([]topo.NodeID{0, 1, 2, 3}, 50); err != nil {
		t.Fatal(err)
	}
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}
	if got := n.Available(0, 1); got != 100 {
		t.Errorf("available = %v, want 100 after abort", got)
	}
	if got := n.Balance(0, 1); got != 100 {
		t.Errorf("balance = %v, want 100 after abort", got)
	}
}

func TestMultiPathAtomicity(t *testing.T) {
	// Diamond 0-1-3, 0-2-3: hold on both then commit; both paths move.
	g := topo.New(4)
	g.MustAddChannel(0, 1)
	g.MustAddChannel(1, 3)
	g.MustAddChannel(0, 2)
	g.MustAddChannel(2, 3)
	n := New(g)
	for _, e := range g.Channels() {
		n.SetBalance(e.A, e.B, 50, 50)
	}
	tx, _ := n.Begin(0, 3, 80)
	if err := tx.Hold([]topo.NodeID{0, 1, 3}, 40); err != nil {
		t.Fatal(err)
	}
	if err := tx.Hold([]topo.NodeID{0, 2, 3}, 40); err != nil {
		t.Fatal(err)
	}
	if tx.HeldTotal() != 80 {
		t.Errorf("HeldTotal = %v", tx.HeldTotal())
	}
	if tx.PathsUsed() != 2 {
		t.Errorf("PathsUsed = %d", tx.PathsUsed())
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	// Receiver node 3 gained 80 total across its two channels.
	gained := n.Balance(3, 1) + n.Balance(3, 2) - 100
	if math.Abs(gained-80) > 1e-9 {
		t.Errorf("receiver gained %v, want 80", gained)
	}
}

func TestSessionLifecycleErrors(t *testing.T) {
	n := lineNet(t)
	tx, _ := n.Begin(0, 3, 10)
	if err := tx.Commit(); err == nil {
		t.Error("commit with nothing held accepted")
	}
	tx.Hold([]topo.NodeID{0, 1, 2, 3}, 10)
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); !errors.Is(err, ErrFinished) {
		t.Errorf("double commit err = %v", err)
	}
	if err := tx.Abort(); !errors.Is(err, ErrFinished) {
		t.Errorf("abort after commit err = %v", err)
	}
	if _, err := tx.Probe([]topo.NodeID{0, 1, 2, 3}); !errors.Is(err, ErrFinished) {
		t.Errorf("probe after commit err = %v", err)
	}
	if err := tx.Hold([]topo.NodeID{0, 1, 2, 3}, 1); !errors.Is(err, ErrFinished) {
		t.Errorf("hold after commit err = %v", err)
	}
}

func TestHoldZeroAmount(t *testing.T) {
	n := lineNet(t)
	tx, _ := n.Begin(0, 3, 10)
	if err := tx.Hold([]topo.NodeID{0, 1, 2, 3}, 0); err == nil {
		t.Error("zero-amount hold accepted")
	}
}

// Amounts that are not positive finite numbers are refused where they
// enter: a NaN hold used to commit and turn both channel directions, and
// TotalFunds, into NaN.
func TestNonFiniteAmountsRejected(t *testing.T) {
	n := lineNet(t)
	path := []topo.NodeID{0, 1, 2, 3}
	for _, x := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := n.Begin(0, 3, x); err == nil {
			t.Errorf("Begin with demand %v accepted", x)
		}
		if err := n.SetBalance(0, 1, x, 100); err == nil {
			t.Errorf("SetBalance with balance %v accepted", x)
		}
		tx, err := n.Begin(0, 3, 10)
		if err != nil {
			t.Fatal(err)
		}
		if err := tx.Hold(path, x); err == nil {
			t.Errorf("Hold of %v accepted", x)
		}
		if tx.HeldTotal() != 0 {
			t.Errorf("Hold of %v left %v held", x, tx.HeldTotal())
		}
		if err := tx.Hold(path, 10); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	if got := n.TotalFunds(); got != 600 {
		t.Errorf("TotalFunds = %v, want 600", got)
	}
	if got, back := n.Balance(0, 1), n.Balance(1, 0); got != 70 || back != 130 {
		t.Errorf("channel 0-1 = %v/%v, want 70/130", got, back)
	}
}

func TestFeesPaid(t *testing.T) {
	n := lineNet(t)
	n.SetFee(0, 1, FeeSchedule{Rate: 0.01})
	n.SetFee(1, 2, FeeSchedule{Rate: 0.02})
	n.SetFee(2, 3, FeeSchedule{Base: 1})
	tx, _ := n.Begin(0, 3, 100)
	tx.Hold([]topo.NodeID{0, 1, 2, 3}, 100)
	tx.Commit()
	want := 1.0 + 2.0 + 1.0
	if math.Abs(tx.FeesPaid()-want) > 1e-9 {
		t.Errorf("FeesPaid = %v, want %v", tx.FeesPaid(), want)
	}
}

func TestScaleBalances(t *testing.T) {
	n := lineNet(t)
	n.ScaleBalances(10)
	if got := n.Balance(0, 1); got != 1000 {
		t.Errorf("scaled balance = %v, want 1000", got)
	}
}

func TestSnapshotRestore(t *testing.T) {
	n := lineNet(t)
	snap := n.Snapshot()
	tx, _ := n.Begin(0, 3, 30)
	tx.Hold([]topo.NodeID{0, 1, 2, 3}, 30)
	tx.Commit()
	if n.Balance(0, 1) == 100 {
		t.Fatal("payment had no effect")
	}
	if err := n.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if n.Balance(0, 1) != 100 || n.HoldsPlaced() != 0 || n.HoldsCommitted() != 0 {
		t.Error("restore did not reset state")
	}
	if err := n.Restore(snap[:2]); err == nil {
		t.Error("short snapshot accepted")
	}
}

// TestClone checks that a clone starts from the original's state —
// balances, fees, liveness, RTTs — with zero counters, and that a
// payment and churn on the clone leave the original untouched.
func TestClone(t *testing.T) {
	n := lineNet(t)
	n.AssignFeesPaper(rand.New(rand.NewSource(3)))
	n.AssignLatenciesLogNormal(rand.New(rand.NewSource(4)), 0.05, 0.5)
	if err := n.SetChannelOpen(2, 3, false); err != nil {
		t.Fatal(err)
	}
	held, _ := n.Begin(0, 1, 1)
	if err := held.Hold([]topo.NodeID{0, 1}, 1); err != nil {
		t.Fatal(err)
	}
	held.Abort()
	c := n.Clone()
	if c.Graph() != n.Graph() || c.HoldsPlaced() != 0 || c.HoldsAborted() != 0 || !c.HasLatency() {
		t.Fatalf("clone shares graph %v, counts %d holds placed and %d aborted, latency %v",
			c.Graph() == n.Graph(), c.HoldsPlaced(), c.HoldsAborted(), c.HasLatency())
	}
	for i, e := range n.Graph().Channels() {
		if c.Balance(e.A, e.B) != n.Balance(e.A, e.B) || c.Balance(e.B, e.A) != n.Balance(e.B, e.A) ||
			c.Fee(e.A, e.B) != n.Fee(e.A, e.B) || c.Fee(e.B, e.A) != n.Fee(e.B, e.A) ||
			c.IsChannelOpen(e.A, e.B) != n.IsChannelOpen(e.A, e.B) || c.latencyNanos(i) != n.latencyNanos(i) {
			t.Errorf("channel %v differs in the clone", e)
		}
	}
	tx, err := c.Begin(0, 2, 30)
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Hold([]topo.NodeID{0, 1, 2}, 30); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := c.SetChannelOpen(2, 3, true); err != nil {
		t.Fatal(err)
	}
	if n.Balance(0, 1) != 100 || c.Balance(0, 1) == 100 || n.IsChannelOpen(2, 3) {
		t.Errorf("the clone's payment or churn reached the original: balances %v / %v, open %v",
			n.Balance(0, 1), c.Balance(0, 1), n.IsChannelOpen(2, 3))
	}
}

func TestAssignBalancesUniform(t *testing.T) {
	g := topo.Ring(50)
	n := New(g)
	rng := rand.New(rand.NewSource(1))
	n.AssignBalancesUniform(rng, 1000, 1500)
	for _, e := range g.Channels() {
		c := capacity(n, e.A, e.B)
		if c < 1000 || c >= 1500 {
			t.Fatalf("capacity %v outside [1000,1500)", c)
		}
		if n.Balance(e.A, e.B) != n.Balance(e.B, e.A) {
			t.Fatal("uniform assignment should split evenly")
		}
	}
}

func TestAssignBalancesLogNormal(t *testing.T) {
	g := topo.Ring(400)
	n := New(g)
	rng := rand.New(rand.NewSource(2))
	n.AssignBalancesLogNormal(rng, 250, 1.5, true)
	caps := make([]float64, 0, 400)
	for _, e := range g.Channels() {
		caps = append(caps, capacity(n, e.A, e.B))
		if n.Balance(e.A, e.B) != n.Balance(e.B, e.A) {
			t.Fatal("even split violated")
		}
	}
	med := median(caps)
	if med < 180 || med > 340 {
		t.Errorf("capacity median = %v, want ≈250", med)
	}
	// Skewed split mode: directions should usually differ.
	n2 := New(g)
	n2.AssignBalancesLogNormal(rng, 250, 1.5, false)
	diff := 0
	for _, e := range g.Channels() {
		if n2.Balance(e.A, e.B) != n2.Balance(e.B, e.A) {
			diff++
		}
	}
	if diff < 350 {
		t.Errorf("random split produced only %d/400 asymmetric channels", diff)
	}
}

func TestAssignFeesPaper(t *testing.T) {
	g := topo.Ring(1000)
	n := New(g)
	rng := rand.New(rand.NewSource(3))
	n.AssignFeesPaper(rng)
	low, high := 0, 0
	for _, e := range g.Channels() {
		r := n.Fee(e.A, e.B).Rate
		switch {
		case r >= 0.001 && r < 0.01:
			low++
		case r >= 0.01 && r < 0.1:
			high++
		default:
			t.Fatalf("rate %v outside both bands", r)
		}
	}
	frac := float64(low) / float64(low+high)
	if frac < 0.85 || frac > 0.95 {
		t.Errorf("low-fee fraction = %v, want ≈0.9", frac)
	}
}

// TestAssignSkipsClosedChannels checks that New freezes its graph and
// that the Assign helpers skip a closed channel without a draw: with
// channel 2 of a ring closed, channels 3.. get what channels 2.. get
// with every channel open, and channel 2 keeps zero balances and fees.
func TestAssignSkipsClosedChannels(t *testing.T) {
	g := topo.Ring(6)
	open, closed := New(g), New(g)
	if _, err := g.AddChannel(0, 3); err == nil || g.NumChannels() != 6 || g.Degree(0) != 2 {
		t.Fatalf("AddChannel after New = %v; %d channels, degree %d", err, g.NumChannels(), g.Degree(0))
	}
	shut := g.Channel(2)
	if err := closed.SetChannelOpen(shut.A, shut.B, false); err != nil {
		t.Fatal(err)
	}
	caps := []float64{10, 20, 30, 40, 50, 60}
	for _, n := range []*Network{open, closed} {
		n.AssignBalancesLogNormal(rand.New(rand.NewSource(4)), 250, 1.5, false)
		n.AssignFeesPaper(rand.New(rand.NewSource(5)))
	}
	state := func(n *Network, i int) [4]float64 {
		e := g.Channel(i)
		return [4]float64{n.Balance(e.A, e.B), n.Balance(e.B, e.A), n.Fee(e.A, e.B).Rate, n.Fee(e.B, e.A).Rate}
	}
	for i := 0; i < 6; i++ {
		want := [4]float64{}
		switch {
		case i < 2:
			want = state(open, i)
		case i > 2:
			want = state(open, i-1)
		}
		if got := state(closed, i); got != want {
			t.Errorf("channel %d: %v, want %v", i, got, want)
		}
	}
	closed.AssignBalancesUniform(rand.New(rand.NewSource(6)), 100, 200)
	if c := capacity(closed, shut.A, shut.B); c != 0 {
		t.Errorf("uniform funding reached the closed channel: capacity %v", c)
	}
	if err := closed.AssignBalancesFromCapacities(caps[:3]); err == nil {
		t.Error("capacities missing open channels accepted")
	}
	last := g.Channel(5)
	if err := closed.SetChannelOpen(last.A, last.B, false); err != nil {
		t.Fatal(err)
	}
	frozen := capacity(closed, last.A, last.B) // closing keeps the uniform funds
	if err := closed.AssignBalancesFromCapacities(caps[:5]); err != nil {
		t.Fatal(err)
	}
	if got := [3]float64{capacity(closed, shut.A, shut.B), capacity(closed, g.Channel(4).A, g.Channel(4).B), capacity(closed, last.A, last.B)}; got != [3]float64{0, 50, frozen} {
		t.Errorf("capacities of channels 2, 4, 5 = %v, want [0 50 %v]", got, frozen)
	}
}

func median(vs []float64) float64 {
	s := append([]float64(nil), vs...)
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
	return s[len(s)/2]
}

// TestConservationProperty drives random hold/commit/abort sequences and
// checks the global invariants: total funds constant, no negative
// balances, per-channel capacity constant.
func TestConservationProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	g, err := topo.BarabasiAlbert(30, 2, rng)
	if err != nil {
		t.Fatal(err)
	}
	n := New(g)
	n.AssignBalancesUniform(rng, 100, 200)
	total := n.TotalFunds()
	capOf := make(map[topo.Edge]float64)
	for _, e := range g.Channels() {
		capOf[e] = capacity(n, e.A, e.B)
	}

	for trial := 0; trial < 500; trial++ {
		s := topo.NodeID(rng.Intn(30))
		r := topo.NodeID(rng.Intn(30))
		if s == r {
			continue
		}
		tx, err := n.Begin(s, r, 1+rng.Float64()*150)
		if err != nil {
			t.Fatal(err)
		}
		// Up to 3 random simple paths via repeated BFS-ish walks: use
		// direct channel or 2-hop through a common neighbour.
		held := false
		for attempt := 0; attempt < 3; attempt++ {
			path := randomPath(g, s, r, rng)
			if path == nil {
				continue
			}
			amt := 1 + rng.Float64()*50
			if tx.Hold(path, amt) == nil {
				held = true
			}
		}
		if held && rng.Float64() < 0.5 {
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
		} else {
			if err := tx.Abort(); err != nil {
				t.Fatal(err)
			}
		}
		if got := n.TotalFunds(); math.Abs(got-total) > 1e-6 {
			t.Fatalf("trial %d: total funds drifted %v → %v", trial, total, got)
		}
	}
	for _, e := range g.Channels() {
		if math.Abs(capacity(n, e.A, e.B)-capOf[e]) > 1e-6 {
			t.Fatalf("channel %v capacity drifted", e)
		}
		if n.Balance(e.A, e.B) < 0 || n.Balance(e.B, e.A) < 0 {
			t.Fatalf("negative balance on %v", e)
		}
		if n.Available(e.A, e.B) != n.Balance(e.A, e.B) {
			t.Fatalf("dangling hold on %v", e)
		}
	}
}

// randomPath returns a short simple path from s to r: the direct channel
// if present, else a 2-hop path through a random common neighbour.
func randomPath(g *topo.Graph, s, r topo.NodeID, rng *rand.Rand) []topo.NodeID {
	if g.HasChannel(s, r) && rng.Float64() < 0.5 {
		return []topo.NodeID{s, r}
	}
	nbrs := g.Neighbors(s)
	for _, i := range rng.Perm(len(nbrs)) {
		mid := nbrs[i]
		if mid != r && g.HasChannel(mid, r) {
			return []topo.NodeID{s, mid, r}
		}
	}
	if g.HasChannel(s, r) {
		return []topo.NodeID{s, r}
	}
	return nil
}

// TestConcurrentSessions keeps eight payers' sessions open at once,
// round by round: every payer begins and holds before any commits or
// aborts, so the holds meet on shared channels. Funds are conserved and
// no hold outlives its session.
func TestConcurrentSessions(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	g, err := topo.BarabasiAlbert(20, 3, rng)
	if err != nil {
		t.Fatal(err)
	}
	n := New(g)
	n.AssignBalancesUniform(rng, 1000, 2000)
	total := n.TotalFunds()
	open := make([]*Tx, 0, 8)
	for round := 0; round < 100; round++ {
		open = open[:0]
		for range 8 {
			s, d := topo.NodeID(rng.Intn(20)), topo.NodeID(rng.Intn(20))
			if s == d {
				continue
			}
			tx, err := n.Begin(s, d, 1)
			if err != nil {
				t.Fatal(err)
			}
			if path := randomPath(g, s, d, rng); path != nil {
				_ = tx.Hold(path, 1+rng.Float64()*20)
			}
			open = append(open, tx)
		}
		for _, tx := range open {
			settle := tx.Abort
			if tx.PathsUsed() > 0 && rng.Intn(2) == 0 {
				settle = tx.Commit
			}
			if err := settle(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if got := n.TotalFunds(); math.Abs(got-total) > 1e-6 {
		t.Errorf("total funds drifted: %v → %v", total, got)
	}
	for i, c := range n.chans {
		if c.held != [2]float64{} {
			t.Errorf("channel %d keeps holds %v after every session settled", i, c.held)
		}
	}
}

// capacity is the total funds in the channel joining u and v, both
// directions summed.
func capacity(n *Network, u, v topo.NodeID) float64 {
	return n.Balance(u, v) + n.Balance(v, u)
}

// TestLatencyDrawsCapped draws RTTs at σ = 40, where an uncapped draw
// overflows int64 nanoseconds, and requires every RTT to lie in
// [0, maxRTTNanos], some at the cap, and a probe and commit along a
// 23-hop path to charge non-negative latency.
func TestLatencyDrawsCapped(t *testing.T) {
	n := New(topo.Line(5001))
	n.AssignLatenciesLogNormal(rand.New(rand.NewSource(9)), 0.05, 40)
	capped := 0
	for i := range n.Graph().Channels() {
		rtt := n.latencyNanos(i)
		if rtt < 0 || rtt > maxRTTNanos {
			t.Fatalf("channel %d: RTT %d ns outside [0, %d]", i, rtt, int64(maxRTTNanos))
		}
		if rtt == maxRTTNanos {
			capped++
		}
	}
	if capped == 0 {
		t.Error("no draw reached the cap at σ = 40")
	}

	line, path := longLineNet(t)
	line.AssignLatenciesLogNormal(rand.New(rand.NewSource(9)), 1e10, 0)
	tx, err := line.Begin(path[0], path[len(path)-1], 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Probe(path); err != nil {
		t.Fatal(err)
	}
	if err := tx.Hold(path, 1); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	want := int64(len(path)-1) * maxRTTNanos
	if tx.ProbeLatencyNanos() != want || tx.CommitLatencyNanos() != 2*want {
		t.Errorf("probe/commit latency %d/%d ns, want %d/%d", tx.ProbeLatencyNanos(), tx.CommitLatencyNanos(), want, 2*want)
	}
}

// setRTT gives every channel the same virtual RTT in seconds: a
// log-normal draw with σ = 0 is exactly its median.
func setRTT(n *Network, seconds float64) {
	n.AssignLatenciesLogNormal(rand.New(rand.NewSource(1)), seconds, 0)
}
