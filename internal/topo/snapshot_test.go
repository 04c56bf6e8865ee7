package topo

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const lnFixture = `{
  "nodes": [
    {"pub_key": "02aa"},
    {"pub_key": "02bb"},
    {"pub_key": "02cc"}
  ],
  "edges": [
    {"node1_pub": "02aa", "node2_pub": "02bb", "capacity": "16777216"},
    {"node1_pub": "02bb", "node2_pub": "02cc", "capacity": 500000},
    {"node1_pub": "02cc", "node2_pub": "02aa", "capacity": "250000"}
  ]
}`

func TestReadLNGraphJSON(t *testing.T) {
	snap, err := ReadLNGraphJSON(strings.NewReader(lnFixture))
	if err != nil {
		t.Fatal(err)
	}
	if n := snap.Graph.NumNodes(); n != 3 {
		t.Fatalf("nodes = %d, want 3", n)
	}
	if c := snap.Graph.NumChannels(); c != 3 {
		t.Fatalf("channels = %d, want 3", c)
	}
	if id := snap.Names.Lookup("02bb"); id != 1 {
		t.Fatalf("02bb interned as %d, want 1 (nodes-array order)", id)
	}
	// Capacity is indexed by channel index, which follows edges order.
	if got := snap.Capacity[snap.Graph.ChannelIndex(1, 2)]; got != 500000 {
		t.Fatalf("capacity(02bb-02cc) = %g, want 500000", got)
	}
}

func TestReadLNGraphJSONMergesParallelChannels(t *testing.T) {
	const dump = `{
	  "nodes": [{"pub_key": "a"}, {"pub_key": "b"}],
	  "edges": [
	    {"node1_pub": "a", "node2_pub": "b", "capacity": "100"},
	    {"node1_pub": "b", "node2_pub": "a", "capacity": "40"}
	  ]
	}`
	snap, err := ReadLNGraphJSON(strings.NewReader(dump))
	if err != nil {
		t.Fatal(err)
	}
	if c := snap.Graph.NumChannels(); c != 1 {
		t.Fatalf("channels = %d, want 1 (parallel channels merge)", c)
	}
	if got := snap.Capacity[0]; got != 140 {
		t.Fatalf("merged capacity = %g, want 140", got)
	}
}

func TestReadLNGraphJSONRejectsMalformed(t *testing.T) {
	cases := []struct {
		name, dump, wantErr string
	}{
		{
			name: "dangling endpoint",
			dump: `{"nodes":[{"pub_key":"a"}],
			        "edges":[{"node1_pub":"a","node2_pub":"ghost","capacity":"5"}]}`,
			wantErr: `edges[0]: node2_pub "ghost"`,
		},
		{
			name: "non-positive capacity",
			dump: `{"nodes":[{"pub_key":"a"},{"pub_key":"b"}],
			        "edges":[{"node1_pub":"a","node2_pub":"b","capacity":"0"}]}`,
			wantErr: "edges[0]: non-positive capacity",
		},
		{
			name: "self-loop",
			dump: `{"nodes":[{"pub_key":"a"}],
			        "edges":[{"node1_pub":"a","node2_pub":"a","capacity":"5"}]}`,
			wantErr: "edges[0]",
		},
		{
			name:    "duplicate node",
			dump:    `{"nodes":[{"pub_key":"a"},{"pub_key":"a"}],"edges":[]}`,
			wantErr: "nodes[1]: duplicate pub_key",
		},
		{
			name:    "empty",
			dump:    `{"nodes":[],"edges":[]}`,
			wantErr: "no nodes",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ReadLNGraphJSON(strings.NewReader(tc.dump))
			if err == nil {
				t.Fatal("want error, got nil")
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
}

func TestReadRippleEdgeList(t *testing.T) {
	const dump = `# a comment
rAlice rBob 250.5
rBob rCarol 90
rCarol rAlice 10
`
	snap, err := ReadRippleEdgeList(strings.NewReader(dump))
	if err != nil {
		t.Fatal(err)
	}
	if n := snap.Graph.NumNodes(); n != 3 {
		t.Fatalf("nodes = %d, want 3", n)
	}
	if id := snap.Names.Lookup("rAlice"); id != 0 {
		t.Fatalf("rAlice interned as %d, want 0 (first seen)", id)
	}
	a, b := snap.Names.Lookup("rAlice"), snap.Names.Lookup("rBob")
	if got := snap.Capacity[snap.Graph.ChannelIndex(a, b)]; got != 250.5 {
		t.Fatalf("capacity(rAlice-rBob) = %g, want 250.5", got)
	}
}

func TestReadRippleEdgeListRejectsMalformed(t *testing.T) {
	cases := []struct {
		name, dump, wantErr string
	}{
		{"field count", "a b\n", "line 1"},
		{"bad capacity", "a b xyz\n", `line 1: capacity "xyz"`},
		{"negative capacity", "a b -3\n", "line 1: non-positive capacity"},
		{"self-loop", "a a 5\n", `line 1: self-loop on "a"`},
		{"duplicate channel", "a b 5\nb a 7\n", "line 2: duplicate channel"},
		{"empty", "# nothing\n", "no channels"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ReadRippleEdgeList(strings.NewReader(tc.dump))
			if err == nil {
				t.Fatal("want error, got nil")
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
}

// snapshotsEqual reports whether two snapshots agree on node count and
// on every channel's named endpoints and capacity.
func snapshotsEqual(t *testing.T, a, b *Snapshot) {
	t.Helper()
	if a.Graph.NumNodes() != b.Graph.NumNodes() {
		t.Fatalf("nodes: %d vs %d", a.Graph.NumNodes(), b.Graph.NumNodes())
	}
	if a.Graph.NumChannels() != b.Graph.NumChannels() {
		t.Fatalf("channels: %d vs %d", a.Graph.NumChannels(), b.Graph.NumChannels())
	}
	for i, e := range a.Graph.Channels() {
		na, nb := a.Names.Name(e.A), a.Names.Name(e.B)
		ba, bb := b.Names.Lookup(na), b.Names.Lookup(nb)
		if ba < 0 || bb < 0 {
			t.Fatalf("channel %d (%s-%s): endpoints missing after round trip", i, na, nb)
		}
		idx := b.Graph.ChannelIndex(ba, bb)
		if idx < 0 {
			t.Fatalf("channel %d (%s-%s): missing after round trip", i, na, nb)
		}
		if a.Capacity[i] != b.Capacity[idx] {
			t.Fatalf("channel %d (%s-%s): capacity %g vs %g", i, na, nb, a.Capacity[i], b.Capacity[idx])
		}
	}
}

func TestSnapshotRoundTripJSON(t *testing.T) {
	snap, err := GenerateSyntheticSnapshot("ripple", 200, 7)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteLNGraphJSON(&buf, snap); err != nil {
		t.Fatal(err)
	}
	again, err := ReadLNGraphJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	snapshotsEqual(t, snap, again)
	// The JSON format preserves ID assignment exactly: re-serialising
	// must reproduce the same bytes.
	var buf2 bytes.Buffer
	if err := WriteLNGraphJSON(&buf2, again); err != nil {
		t.Fatal(err)
	}
	if err := WriteLNGraphJSON(&buf, snap); err != nil { // buf was drained
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatal("JSON round trip is not byte-stable")
	}
}

func TestSnapshotRoundTripEdgeList(t *testing.T) {
	snap, err := GenerateSyntheticSnapshot("testbed", 100, 3)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteRippleEdgeList(&buf, snap); err != nil {
		t.Fatal(err)
	}
	again, err := ReadRippleEdgeList(&buf)
	if err != nil {
		t.Fatal(err)
	}
	snapshotsEqual(t, snap, again)
}

// TestSnapshotFileRoundTrip writes and reads back a snapshot under
// each extension, the format chosen by IsLNGraphPath in either case.
func TestSnapshotFileRoundTrip(t *testing.T) {
	snap, err := GenerateSyntheticSnapshot("ripple", 60, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		json bool
	}{{"s.json", true}, {"s.JSON", true}, {"s.Json", true}, {"s.edges", false}, {"s.json.txt", false}} {
		if got := IsLNGraphPath(c.name); got != c.json {
			t.Errorf("IsLNGraphPath(%q) = %v, want %v", c.name, got, c.json)
		}
		path := filepath.Join(t.TempDir(), c.name)
		if err := WriteSnapshotFile(path, snap); err != nil {
			t.Fatal(err)
		}
		body, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if isJSON := bytes.HasPrefix(body, []byte("{")); isJSON != c.json {
			t.Errorf("%s: written as JSON = %v, want %v", c.name, isJSON, c.json)
		}
		again, err := LoadSnapshotFile(path)
		if err != nil {
			t.Fatal(err)
		}
		snapshotsEqual(t, snap, again)
	}
}

func TestGenerateSyntheticSnapshotDeterministic(t *testing.T) {
	a, err := GenerateSyntheticSnapshot("lightning", 150, 42)
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenerateSyntheticSnapshot("lightning", 150, 42)
	if err != nil {
		t.Fatal(err)
	}
	snapshotsEqual(t, a, b)
	if _, err := GenerateSyntheticSnapshot("nope", 10, 1); err == nil {
		t.Fatal("unknown kind: want error")
	}
}
