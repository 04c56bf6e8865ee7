package topo

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

// checkSnapshotInvariants asserts the structural guarantees every
// successfully ingested snapshot documents: dense graph, interner
// covering every node, one positive finite capacity per channel, no
// self-loops.
func checkSnapshotInvariants(t *testing.T, snap *Snapshot) {
	t.Helper()
	if snap == nil || snap.Graph == nil || snap.Names == nil {
		t.Fatal("nil snapshot parts on success")
	}
	if snap.Names.Len() != snap.Graph.NumNodes() {
		t.Fatalf("interner covers %d nodes, graph has %d", snap.Names.Len(), snap.Graph.NumNodes())
	}
	if len(snap.Capacity) != snap.Graph.NumChannels() {
		t.Fatalf("%d capacities for %d channels", len(snap.Capacity), snap.Graph.NumChannels())
	}
	for i, c := range snap.Capacity {
		if c <= 0 || math.IsNaN(c) || math.IsInf(c, 0) {
			t.Fatalf("capacity[%d] = %v escaped validation", i, c)
		}
	}
	for _, e := range snap.Graph.Channels() {
		if e.A == e.B {
			t.Fatalf("self-loop on node %d escaped validation", e.A)
		}
	}
}

// FuzzReadLNGraphJSON throws arbitrary bytes at the LN channel-graph
// ingester. The reader must never panic; on success the snapshot must
// satisfy its invariants and survive a write/read round trip exactly
// (WriteLNGraphJSON documents node order = NodeID order, edge order =
// channel-index order).
func FuzzReadLNGraphJSON(f *testing.F) {
	f.Add([]byte(`{"nodes":[{"pub_key":"a"},{"pub_key":"b"}],` +
		`"edges":[{"node1_pub":"a","node2_pub":"b","capacity":"1000"}]}`))
	f.Add([]byte(`{"nodes":[{"pub_key":"a"},{"pub_key":"b"},{"pub_key":"c"}],` +
		`"edges":[{"node1_pub":"a","node2_pub":"b","capacity":5},` +
		`{"node1_pub":"b","node2_pub":"c","capacity":7},` +
		`{"node1_pub":"a","node2_pub":"b","capacity":3}]}`)) // parallel channel: merged
	f.Add([]byte(`{"nodes":[],"edges":[]}`))                                                              // no nodes
	f.Add([]byte(`{"nodes":[{"pub_key":"a"}],"edges":[{"node1_pub":"a","node2_pub":"a"}]}`))              // self-loop
	f.Add([]byte(`{"nodes":[{"pub_key":"a"},{"pub_key":"a"}]}`))                                          // duplicate node
	f.Add([]byte(`{"nodes":[{"pub_key":"x"}],"edges":[{"node1_pub":"x","node2_pub":"y","capacity":1}]}`)) // dangling
	f.Add([]byte(`{"nodes":[{"pub_key":"a"},{"pub_key":"b"}],` +
		`"edges":[{"node1_pub":"a","node2_pub":"b","capacity":"-3"}]}`)) // bad capacity
	f.Add([]byte(`not json at all`))
	f.Add([]byte(`{"nodes":[{"pub_key":"a"},{"pub_key":"b"}],` +
		`"edges":[{"node1_pub":"a","node2_pub":"b","capacity":"1e400"}]}`)) // overflows to +Inf

	f.Fuzz(func(t *testing.T, data []byte) {
		snap, err := ReadLNGraphJSON(bytes.NewReader(data))
		if err != nil {
			return // rejection is fine; panics and invariant breaks are not
		}
		checkSnapshotInvariants(t, snap)

		var buf bytes.Buffer
		if err := WriteLNGraphJSON(&buf, snap); err != nil {
			t.Fatalf("writing accepted snapshot: %v", err)
		}
		again, err := ReadLNGraphJSON(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("re-reading written snapshot: %v\n%s", err, buf.Bytes())
		}
		if again.Graph.NumNodes() != snap.Graph.NumNodes() ||
			again.Graph.NumChannels() != snap.Graph.NumChannels() {
			t.Fatalf("round trip changed shape: %d/%d nodes, %d/%d channels",
				snap.Graph.NumNodes(), again.Graph.NumNodes(),
				snap.Graph.NumChannels(), again.Graph.NumChannels())
		}
		for i := range snap.Capacity {
			if snap.Capacity[i] != again.Capacity[i] {
				t.Fatalf("round trip changed capacity[%d]: %v -> %v", i, snap.Capacity[i], again.Capacity[i])
			}
		}
		for i, e := range snap.Graph.Channels() {
			e2 := again.Graph.Channels()[i]
			if snap.name(e.A) != again.name(e2.A) || snap.name(e.B) != again.name(e2.B) {
				t.Fatalf("round trip changed channel %d endpoints", i)
			}
		}
	})
}

// FuzzReadRippleEdgeList throws arbitrary text at the capacity
// edge-list ingester. On success the snapshot must satisfy its
// invariants, and a write→read→write cycle must be a fixed point:
// the reader interns in first-seen order, which is exactly the order
// the writer emits, so the second write reproduces the first byte for
// byte.
func FuzzReadRippleEdgeList(f *testing.F) {
	f.Add("a b 10\nb c 20\n")
	f.Add("# comment\n\nr1 r2 0.5\nr2 r3 1e3\nr3 r1 250\n")
	f.Add("n0 n1 1000\n")
	f.Add("a b 10\na b 20\n")   // duplicate channel
	f.Add("a a 10\n")           // self-loop
	f.Add("a b\n")              // wrong field count
	f.Add("a b ten\n")          // unparsable capacity
	f.Add("a b -1\n")           // non-positive capacity
	f.Add("a b NaN\n")          // NaN capacity
	f.Add("a b Inf\n")          // infinite capacity
	f.Add("")                   // empty input
	f.Add("# only a comment\n") // no channels

	f.Fuzz(func(t *testing.T, data string) {
		snap, err := ReadRippleEdgeList(strings.NewReader(data))
		if err != nil {
			return
		}
		checkSnapshotInvariants(t, snap)

		var first bytes.Buffer
		if err := WriteRippleEdgeList(&first, snap); err != nil {
			// The writer refuses names the format cannot round-trip.
			// From this reader that can only mean a '#'-leading name
			// (interned from a dst field) moved to line-leading
			// position under channel normalisation.
			for _, e := range snap.Graph.Channels() {
				if strings.HasPrefix(snap.name(e.A), "#") || strings.HasPrefix(snap.name(e.B), "#") {
					return
				}
			}
			t.Fatalf("writing accepted snapshot: %v", err)
		}
		again, err := ReadRippleEdgeList(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("re-reading written snapshot: %v\n%s", err, first.Bytes())
		}
		var second bytes.Buffer
		if err := WriteRippleEdgeList(&second, again); err != nil {
			t.Fatalf("writing round-tripped snapshot: %v", err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("write->read->write not a fixed point:\n--- first ---\n%s\n--- second ---\n%s",
				first.Bytes(), second.Bytes())
		}
	})
}

// FuzzReadEdgeList throws arbitrary text at the flash-topology reader.
// It must never panic or exhaust memory; on success the graph must hold
// together (no self-loop, every channel in both endpoints' adjacency,
// degrees summing to twice the channels, each node's channels laid out
// in ascending index order) and survive a
// writeEdgeList → ReadEdgeList round trip with its node count and
// channel order intact.
func FuzzReadEdgeList(f *testing.F) {
	f.Add("# flash-topology nodes=3 channels=2\n0 1\n1 2\n")
	f.Add("0 1\n1 2\n2 0\n")
	f.Add("# flash-topology nodes=10\n")      // isolated nodes only
	f.Add("0 1\n1 0\n")                       // duplicate channel
	f.Add("0 0\n")                            // self-loop
	f.Add("0 1 trailing garbage\n")           // too many fields
	f.Add("# flash-topology nodes=-5\n0 1\n") // negative header
	f.Add("# flash-topology nodes=1000000000000\n0 1\n")
	f.Add("0 2000000000\n")
	f.Add("0 1\n0 2\n0 3\n0 4\n0 5\n0 6\n0 7\n0 8\n") // hub-first star
	f.Add("")

	f.Fuzz(func(t *testing.T, data string) {
		g, err := ReadEdgeList(strings.NewReader(data))
		if err != nil {
			return
		}
		if g.NumNodes() > MaxEdgeListNodes {
			t.Fatalf("%d nodes accepted, over the %d bound", g.NumNodes(), MaxEdgeListNodes)
		}
		degSum := 0
		for u := 0; u < g.NumNodes(); u++ {
			degSum += g.Degree(NodeID(u))
		}
		if degSum != 2*g.NumChannels() {
			t.Fatalf("degrees sum to %d for %d channels", degSum, g.NumChannels())
		}
		if msg := ascendingSpans(g); msg != "" {
			t.Fatal(msg)
		}
		for _, e := range g.Channels() {
			if e.A == e.B || !g.HasChannel(e.A, e.B) || !g.HasChannel(e.B, e.A) {
				t.Fatalf("channel %v is a self-loop or missing from adjacency", e)
			}
		}

		var buf bytes.Buffer
		if err := writeEdgeList(&buf, g); err != nil {
			t.Fatalf("writing accepted graph: %v", err)
		}
		again, err := ReadEdgeList(&buf)
		if err != nil {
			t.Fatalf("re-reading written graph: %v", err)
		}
		if again.NumNodes() != g.NumNodes() || again.NumChannels() != g.NumChannels() {
			t.Fatalf("round trip changed shape: %d/%d nodes, %d/%d channels",
				g.NumNodes(), again.NumNodes(), g.NumChannels(), again.NumChannels())
		}
		for i, e := range g.Channels() {
			if again.Channel(i) != e {
				t.Fatalf("round trip changed channel %d: %v -> %v", i, e, again.Channel(i))
			}
		}
	})
}
