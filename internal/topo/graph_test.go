package topo

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"time"
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
	// The first adjacency read freezes the graph; AddChannel then fails
	// and changes nothing.
	if nb := g.Neighbors(1); len(nb) != 1 || nb[0] != 0 {
		t.Fatalf("Neighbors(1) = %v, want [0]", nb)
	}
	for _, e := range [][2]NodeID{{0, 2}, {1, 0}} {
		if idx, err := g.AddChannel(e[0], e[1]); err == nil {
			t.Errorf("AddChannel(%d, %d) on a frozen graph = %d, nil", e[0], e[1], idx)
		}
	}
	if off, nbrs, chans := g.AdjacencyView(); g.NumChannels() != 1 || off[3] != 2 || g.Degree(2) != 0 ||
		nbrs[0] != 1 || chans[0] != 0 || g.ChannelIndex(0, 2) != -1 || g.ChannelIndex(1, 0) != 0 {
		t.Errorf("frozen graph changed: %d channels, view %v %v %v", g.NumChannels(), off, nbrs, chans)
	}
	g.Freeze() // a second freeze does nothing
	if g.NumChannels() != 1 || !g.HasChannel(0, 1) {
		t.Error("a second Freeze changed the graph")
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

// connected reports whether g is one component.
func connected(g *Graph) bool {
	for _, c := range g.Components() {
		if c != 0 {
			return false
		}
	}
	return true
}

func TestConnectivity(t *testing.T) {
	if !connected(Line(5)) {
		t.Error("line should be connected")
	}
	h := New(5)
	h.MustAddChannel(0, 3)
	h.MustAddChannel(2, 4)
	if comp := h.Components(); fmt.Sprint(comp) != "[0 1 2 0 2]" {
		t.Errorf("Components() = %v, want [0 1 2 0 2]", comp)
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
	if !connected(g) {
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
	if !connected(g) {
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
	if float64(maxDeg) < 3*avgDegree(g) {
		t.Errorf("max degree %d not heavy-tailed vs mean %.1f", maxDeg, avgDegree(g))
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
	if d := avgDegree(r); d < 8 || d > 11 {
		t.Errorf("Ripple-like avg degree = %.1f, want ≈9.3", d)
	}
	l, err := LightningLike(300, rng)
	if err != nil {
		t.Fatal(err)
	}
	if d := avgDegree(l); d < 12 || d > 15.5 {
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
	if err := writeEdgeList(&buf, g); err != nil {
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
// declared node count, no self-loops, and consistent adjacency; and every
// generator and loader lays each node's channels out in ascending
// channel-index order, the order every seeded BFS tie-break reads.
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
		return degSum == 2*g.NumChannels() && ascendingSpans(g) == ""
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}

	rng := rand.New(rand.NewSource(9))
	must := func(g *Graph, err error) *Graph {
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	snap, err := GenerateSyntheticSnapshot("lightning", 120, 3)
	if err != nil {
		t.Fatal(err)
	}
	var edges, ripple, ln bytes.Buffer
	if err := writeEdgeList(&edges, snap.Graph); err != nil {
		t.Fatal(err)
	}
	if err := WriteRippleEdgeList(&ripple, snap); err != nil {
		t.Fatal(err)
	}
	if err := WriteLNGraphJSON(&ln, snap); err != nil {
		t.Fatal(err)
	}
	fromSnap := func(s *Snapshot, err error) *Graph {
		if err != nil {
			t.Fatal(err)
		}
		return s.Graph
	}
	graphs := map[string]*Graph{
		"Ring":                Ring(30),
		"Line":                Line(30),
		"Complete":            Complete(12),
		"WattsStrogatz":       must(WattsStrogatz(200, 6, 0.5, rng)),
		"BarabasiAlbert":      must(BarabasiAlbert(200, 3, rng)),
		"RippleLike":          must(RippleLike(200, rng)),
		"LightningLike":       must(LightningLike(200, rng)),
		"ReadEdgeList":        must(ReadEdgeList(&edges)),
		"ReadRippleEdgeList":  fromSnap(ReadRippleEdgeList(&ripple)),
		"ReadLNGraphJSON":     fromSnap(ReadLNGraphJSON(&ln)),
		"SyntheticSnapshot":   snap.Graph,
		"hub-first edge list": must(ReadEdgeList(strings.NewReader("0 3\n0 1\n2 0\n1 2\n3 1\n"))),
	}
	for name, g := range graphs {
		if msg := ascendingSpans(g); msg != "" {
			t.Errorf("%s: %s", name, msg)
		}
	}
}

// ascendingSpans checks g's CSR layout: each node's arena span lists its
// channels in ascending channel index, each entry's channel joins the
// node to the listed neighbor, and the spans cover every channel twice.
// It returns what is wrong, or "".
func ascendingSpans(g *Graph) string {
	off, nbrs, chans := g.AdjacencyView()
	if int(off[g.NumNodes()]) != 2*g.NumChannels() {
		return fmt.Sprintf("spans hold %d entries, want %d", off[g.NumNodes()], 2*g.NumChannels())
	}
	for u := 0; u < g.NumNodes(); u++ {
		for i := off[u]; i < off[u+1]; i++ {
			if i > off[u] && chans[i] <= chans[i-1] {
				return fmt.Sprintf("node %d lists channel %d after %d", u, chans[i], chans[i-1])
			}
			if g.Channel(int(chans[i])) != NewEdge(NodeID(u), nbrs[i]) {
				return fmt.Sprintf("node %d: channel %d is %v, listed with neighbor %d", u, chans[i], g.Channel(int(chans[i])), nbrs[i])
			}
		}
	}
	return ""
}

// TestIngestHubFirstStarLinear: building a graph costs the same
// whichever endpoint of its channels comes first. A star of 200,000
// leaves is read hub-first ("0 i" per line) and leaf-first ("i 0"),
// through ReadEdgeList and ReadRippleEdgeList; the slower orientation
// may take at most three times the faster one. A builder that scans the
// first endpoint's adjacency on every insert is quadratic hub-first.
func TestIngestHubFirstStarLinear(t *testing.T) {
	const leaves = 200000
	star := func(line func(b []byte, leaf int) []byte) []byte {
		var b []byte
		for i := 1; i <= leaves; i++ {
			b = line(b, i)
		}
		return b
	}
	readers := []struct {
		name      string
		hub, leaf func(b []byte, leaf int) []byte
		read      func(data []byte) (*Graph, error)
	}{
		{"ReadEdgeList",
			func(b []byte, i int) []byte { return fmt.Appendf(b, "0 %d\n", i) },
			func(b []byte, i int) []byte { return fmt.Appendf(b, "%d 0\n", i) },
			func(data []byte) (*Graph, error) { return ReadEdgeList(bytes.NewReader(data)) }},
		{"ReadRippleEdgeList",
			func(b []byte, i int) []byte { return fmt.Appendf(b, "hub n%d 1\n", i) },
			func(b []byte, i int) []byte { return fmt.Appendf(b, "n%d hub 1\n", i) },
			func(data []byte) (*Graph, error) {
				snap, err := ReadRippleEdgeList(bytes.NewReader(data))
				if err != nil {
					return nil, err
				}
				return snap.Graph, nil
			}},
	}
	for _, r := range readers {
		inputs := [2][]byte{star(r.hub), star(r.leaf)}
		best := [2]time.Duration{time.Hour, time.Hour}
		for rep := 0; rep < 3; rep++ {
			for i, data := range inputs {
				start := time.Now()
				g, err := r.read(data)
				if err != nil {
					t.Fatal(err)
				}
				e := g.Channel(0) // the hub and one leaf
				if g.NumChannels() != leaves || g.Degree(e.A)+g.Degree(e.B) != leaves+1 {
					t.Fatalf("%s: %d channels, degrees %d and %d", r.name, g.NumChannels(), g.Degree(e.A), g.Degree(e.B))
				}
				best[i] = min(best[i], time.Since(start))
			}
		}
		hub, leaf := best[0], best[1]
		if hub > 3*leaf || leaf > 3*hub {
			t.Errorf("%s: hub-first %v, leaf-first %v: ratio over 3", r.name, hub, leaf)
		}
		t.Logf("%s: hub-first %v, leaf-first %v", r.name, hub, leaf)
	}
}

// writeEdgeList serialises g in the format ReadEdgeList parses, header
// included.
func writeEdgeList(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "# flash-topology nodes=%d channels=%d\n", g.NumNodes(), g.NumChannels()); err != nil {
		return err
	}
	for _, e := range g.Channels() {
		if _, err := fmt.Fprintf(bw, "%d %d\n", e.A, e.B); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// avgDegree returns the mean node degree (2·channels / nodes).
func avgDegree(g *Graph) float64 {
	return 2 * float64(g.NumChannels()) / float64(g.NumNodes())
}
