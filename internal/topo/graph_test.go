package topo

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestAddChannelBasics(t *testing.T) {
	g := New(3)
	idx, err := g.AddChannel(0, 1)
	if err != nil || idx != 0 {
		t.Fatalf("AddChannel = (%d, %v), want (0, nil)", idx, err)
	}
	// Duplicate (either orientation) returns the same index.
	if idx2, _ := g.AddChannel(1, 0); idx2 != 0 {
		t.Errorf("duplicate channel index = %d, want 0", idx2)
	}
	if g.NumChannels() != 1 {
		t.Errorf("NumChannels = %d, want 1", g.NumChannels())
	}
	if !g.HasChannel(0, 1) || !g.HasChannel(1, 0) {
		t.Error("HasChannel should be orientation-independent")
	}
	if g.HasChannel(0, 2) {
		t.Error("HasChannel(0,2) should be false")
	}
}

func TestAddChannelErrors(t *testing.T) {
	g := New(3)
	if _, err := g.AddChannel(1, 1); err == nil {
		t.Error("self-loop accepted")
	}
	if _, err := g.AddChannel(0, 5); err == nil {
		t.Error("out-of-range node accepted")
	}
	if _, err := g.AddChannel(-1, 0); err == nil {
		t.Error("negative node accepted")
	}
}

func TestChannelIndexAndEndpoints(t *testing.T) {
	g := New(4)
	g.MustAddChannel(2, 0)
	g.MustAddChannel(1, 3)
	if got := g.ChannelIndex(0, 2); got != 0 {
		t.Errorf("ChannelIndex(0,2) = %d, want 0", got)
	}
	if got := g.ChannelIndex(3, 1); got != 1 {
		t.Errorf("ChannelIndex(3,1) = %d, want 1", got)
	}
	if got := g.ChannelIndex(0, 3); got != -1 {
		t.Errorf("ChannelIndex(0,3) = %d, want -1", got)
	}
	e := g.Channel(0)
	if e.A != 0 || e.B != 2 {
		t.Errorf("Channel(0) = %+v, want canonical {0 2}", e)
	}
}

func TestNeighborsAndDegree(t *testing.T) {
	g := Line(4)
	if g.Degree(0) != 1 || g.Degree(1) != 2 {
		t.Errorf("degrees = %d,%d want 1,2", g.Degree(0), g.Degree(1))
	}
	nbrs := g.Neighbors(1)
	if len(nbrs) != 2 {
		t.Fatalf("Neighbors(1) = %v", nbrs)
	}
}

func TestConnectivity(t *testing.T) {
	g := Line(5)
	if len(g.ComponentOf(0)) != 5 {
		t.Error("line should be connected")
	}
	h := New(4)
	h.MustAddChannel(0, 1)
	h.MustAddChannel(2, 3)
	if comp := h.ComponentOf(2); len(comp) != 2 || comp[0] != 2 || comp[1] != 3 {
		t.Errorf("ComponentOf(2) = %v, want [2 3]", comp)
	}
}

func TestClone(t *testing.T) {
	g := Ring(4)
	c := g.Clone()
	c.MustAddChannel(0, 2)
	if g.HasChannel(0, 2) {
		t.Error("clone mutation leaked into original")
	}
}

func TestRingLineComplete(t *testing.T) {
	if got := Ring(6).NumChannels(); got != 6 {
		t.Errorf("Ring(6) channels = %d, want 6", got)
	}
	if got := Line(6).NumChannels(); got != 5 {
		t.Errorf("Line(6) channels = %d, want 5", got)
	}
	if got := Complete(5).NumChannels(); got != 10 {
		t.Errorf("Complete(5) channels = %d, want 10", got)
	}
}

func TestWattsStrogatz(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g, err := WattsStrogatz(50, 4, 0.3, rng)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 50 {
		t.Errorf("nodes = %d", g.NumNodes())
	}
	// The lattice has n*k/2 = 100 channels; rewiring may drop a few on
	// collision but the count stays close.
	if c := g.NumChannels(); c < 90 || c > 100 {
		t.Errorf("channels = %d, want ≈100", c)
	}
	if len(g.ComponentOf(0)) != g.NumNodes() {
		t.Error("WS graph with beta=0.3 should be connected (seed 1)")
	}
}

func TestWattsStrogatzNoRewire(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g, err := WattsStrogatz(10, 4, 0, rng)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumChannels() != 20 {
		t.Errorf("pure lattice channels = %d, want 20", g.NumChannels())
	}
	for u := 0; u < 10; u++ {
		if g.Degree(NodeID(u)) != 4 {
			t.Errorf("node %d degree = %d, want 4", u, g.Degree(NodeID(u)))
		}
	}
}

func TestWattsStrogatzValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if _, err := WattsStrogatz(10, 3, 0.1, rng); err == nil {
		t.Error("odd k accepted")
	}
	if _, err := WattsStrogatz(4, 4, 0.1, rng); err == nil {
		t.Error("n ≤ k accepted")
	}
	if _, err := WattsStrogatz(10, 4, 1.5, rng); err == nil {
		t.Error("beta > 1 accepted")
	}
}

func TestBarabasiAlbert(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g, err := BarabasiAlbert(200, 3, rng)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 200 {
		t.Errorf("nodes = %d", g.NumNodes())
	}
	if len(g.ComponentOf(0)) != g.NumNodes() {
		t.Error("BA graphs are connected by construction")
	}
	// Expected channels: clique C(4,2)=6 + 196*3 = 594.
	if c := g.NumChannels(); c != 594 {
		t.Errorf("channels = %d, want 594", c)
	}
	// Scale-free: max degree should far exceed the mean.
	maxDeg := 0
	for u := 0; u < 200; u++ {
		if d := g.Degree(NodeID(u)); d > maxDeg {
			maxDeg = d
		}
	}
	if float64(maxDeg) < 3*g.AvgDegree() {
		t.Errorf("max degree %d not heavy-tailed vs mean %.1f", maxDeg, g.AvgDegree())
	}
}

func TestBarabasiAlbertValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if _, err := BarabasiAlbert(5, 0, rng); err == nil {
		t.Error("m=0 accepted")
	}
	if _, err := BarabasiAlbert(3, 3, rng); err == nil {
		t.Error("n ≤ m accepted")
	}
}

func TestRippleLightningLike(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	r, err := RippleLike(300, rng)
	if err != nil {
		t.Fatal(err)
	}
	if d := r.AvgDegree(); d < 8 || d > 11 {
		t.Errorf("Ripple-like avg degree = %.1f, want ≈9.3", d)
	}
	l, err := LightningLike(300, rng)
	if err != nil {
		t.Fatal(err)
	}
	if d := l.AvgDegree(); d < 12 || d > 15.5 {
		t.Errorf("Lightning-like avg degree = %.1f, want ≈14.3", d)
	}
	if _, err := RippleLike(5, rng); err == nil {
		t.Error("tiny RippleLike accepted")
	}
	if _, err := LightningLike(5, rng); err == nil {
		t.Error("tiny LightningLike accepted")
	}
}

func TestEdgeListRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	g, err := BarabasiAlbert(60, 2, rng)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	back, err := ReadEdgeList(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumNodes() != g.NumNodes() || back.NumChannels() != g.NumChannels() {
		t.Fatalf("round trip: %d/%d nodes, %d/%d channels",
			back.NumNodes(), g.NumNodes(), back.NumChannels(), g.NumChannels())
	}
	for _, e := range g.Channels() {
		if !back.HasChannel(e.A, e.B) {
			t.Fatalf("channel %v lost in round trip", e)
		}
	}
}

func TestReadEdgeListHeaderless(t *testing.T) {
	g, err := ReadEdgeList(strings.NewReader("0 1\n1 2\n"))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 3 || g.NumChannels() != 2 {
		t.Errorf("got %d nodes %d channels", g.NumNodes(), g.NumChannels())
	}
}

func TestReadEdgeListIsolatedTrailingNodes(t *testing.T) {
	// Header declares more nodes than the edges reference.
	g, err := ReadEdgeList(strings.NewReader("# flash-topology nodes=5 channels=1\n0 1\n"))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 5 {
		t.Errorf("nodes = %d, want 5", g.NumNodes())
	}
}

func TestReadEdgeListErrors(t *testing.T) {
	cases := []string{
		"0 x\n",
		"-1 2\n",
		"# flash-topology nodes=2 channels=1\n0 5\n",
		"# flash-topology nodes=1000000000000\n0 1\n", // would allocate ~24 TB
		"0 2000000000\n", // so would this
		"# flash-topology nodes=-5\n0 1\n",
		"0 1 trailing garbage\n",
		"0\n",
		"0 1.5\n",
	}
	for _, c := range cases {
		if _, err := ReadEdgeList(strings.NewReader(c)); err == nil {
			t.Errorf("input %q: expected error", c)
		}
	}
}

// Property: WS and BA generation for random valid parameters yields the
// declared node count, no self-loops, and consistent adjacency.
func TestGeneratorInvariants(t *testing.T) {
	f := func(seed int64, nRaw, mRaw uint8) bool {
		n := 20 + int(nRaw)%80
		m := 1 + int(mRaw)%5
		rng := rand.New(rand.NewSource(seed))
		g, err := BarabasiAlbert(n, m, rng)
		if err != nil {
			return false
		}
		if g.NumNodes() != n {
			return false
		}
		degSum := 0
		for u := 0; u < n; u++ {
			for _, v := range g.Neighbors(NodeID(u)) {
				if v == NodeID(u) {
					return false // self loop
				}
				if !g.HasChannel(NodeID(u), v) {
					return false // adjacency vs edge set mismatch
				}
			}
			degSum += g.Degree(NodeID(u))
		}
		return degSum == 2*g.NumChannels()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
