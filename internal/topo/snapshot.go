package topo

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"unicode"
)

// Snapshot is an ingested real-world (or synthetic) channel graph: the
// topology (not yet frozen), the interner mapping external node keys (LN
// pubkeys, Ripple addresses) to dense NodeIDs, and the per-channel
// capacity in the source's native unit, indexed by channel index.
type Snapshot struct {
	Graph    *Graph
	Names    *Interner
	Capacity []float64
}

// lnGraphJSON mirrors the subset of lnd's `describegraph` output the
// ingester needs. Unknown fields are ignored.
type lnGraphJSON struct {
	Nodes []lnNodeJSON `json:"nodes"`
	Edges []lnEdgeJSON `json:"edges"`
}

type lnNodeJSON struct {
	PubKey string `json:"pub_key"`
}

type lnEdgeJSON struct {
	Node1Pub string  `json:"node1_pub"`
	Node2Pub string  `json:"node2_pub"`
	Capacity flexNum `json:"capacity"`
}

// flexNum accepts a JSON number either bare or quoted — lnd serialises
// satoshi capacities as decimal strings.
type flexNum float64

// UnmarshalJSON implements json.Unmarshaler.
func (f *flexNum) UnmarshalJSON(b []byte) error {
	s := strings.Trim(string(b), `"`)
	if s == "" || s == "null" {
		*f = 0
		return nil
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return fmt.Errorf("capacity %q: %w", s, err)
	}
	*f = flexNum(v)
	return nil
}

// ReadLNGraphJSON ingests a Lightning channel-graph dump in lnd's
// `describegraph` JSON shape: a `nodes` array keyed by `pub_key` and an
// `edges` array of `node1_pub`/`node2_pub`/`capacity` records (capacity
// in satoshi, bare or quoted). NodeIDs are assigned in nodes-array
// order, channel indices in edges-array order. Parallel channels
// between the same pair — routine in real Lightning dumps — are merged
// with capacities summed. Malformed dumps are rejected with the index
// of the offending record: edges referencing a pubkey missing from the
// nodes list (dangling endpoint), non-positive capacities, self-loops,
// and duplicate node records are all errors.
func ReadLNGraphJSON(r io.Reader) (*Snapshot, error) {
	var dump lnGraphJSON
	dec := json.NewDecoder(r)
	if err := dec.Decode(&dump); err != nil {
		return nil, fmt.Errorf("topo: ln graph json: %w", err)
	}
	if len(dump.Nodes) == 0 {
		return nil, fmt.Errorf("topo: ln graph json: no nodes")
	}
	in := NewInterner(len(dump.Nodes))
	for i, n := range dump.Nodes {
		if n.PubKey == "" {
			return nil, fmt.Errorf("topo: nodes[%d]: empty pub_key", i)
		}
		if in.Lookup(n.PubKey) >= 0 {
			return nil, fmt.Errorf("topo: nodes[%d]: duplicate pub_key %q", i, n.PubKey)
		}
		in.Intern(n.PubKey)
	}
	g := New(in.Len())
	caps := make([]float64, 0, len(dump.Edges))
	for i, e := range dump.Edges {
		a := in.Lookup(e.Node1Pub)
		if a < 0 {
			return nil, fmt.Errorf("topo: edges[%d]: node1_pub %q not in nodes list", i, e.Node1Pub)
		}
		b := in.Lookup(e.Node2Pub)
		if b < 0 {
			return nil, fmt.Errorf("topo: edges[%d]: node2_pub %q not in nodes list", i, e.Node2Pub)
		}
		c := float64(e.Capacity)
		if c <= 0 || math.IsNaN(c) || math.IsInf(c, 0) {
			return nil, fmt.Errorf("topo: edges[%d]: non-positive capacity %v", i, c)
		}
		if idx := g.ChannelIndex(a, b); idx >= 0 {
			caps[idx] += c // parallel channel: merge
			continue
		}
		if _, err := g.AddChannel(a, b); err != nil {
			return nil, fmt.Errorf("topo: edges[%d]: %w", i, err)
		}
		caps = append(caps, c) // AddChannel assigns indices sequentially
	}
	return &Snapshot{Graph: g, Names: in, Capacity: caps}, nil
}

// ReadRippleEdgeList ingests a whitespace-separated capacity edge list,
// the shape Ripple trust-line crawls are distributed in:
//
//	# optional comments
//	<src> <dst> <capacity>
//
// one channel per line. Node keys are arbitrary strings (Ripple
// addresses, integers, anything without whitespace), interned to dense
// NodeIDs in first-seen order. Malformed lines are rejected with their
// line number: wrong field counts, self-loops, non-positive or
// unparsable capacities, and duplicate channels are all errors.
func ReadRippleEdgeList(r io.Reader) (*Snapshot, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<24)
	in := NewInterner(0)
	type row struct {
		a, b NodeID
		cap  float64
		line int
	}
	var rows []row
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 3 {
			return nil, fmt.Errorf("topo: line %d: want \"src dst capacity\", got %d fields", lineNo, len(fields))
		}
		c, err := strconv.ParseFloat(fields[2], 64)
		if err != nil {
			return nil, fmt.Errorf("topo: line %d: capacity %q: %w", lineNo, fields[2], err)
		}
		if c <= 0 || math.IsNaN(c) || math.IsInf(c, 0) {
			return nil, fmt.Errorf("topo: line %d: non-positive capacity %v", lineNo, c)
		}
		if fields[0] == fields[1] {
			return nil, fmt.Errorf("topo: line %d: self-loop on %q", lineNo, fields[0])
		}
		rows = append(rows, row{a: in.Intern(fields[0]), b: in.Intern(fields[1]), cap: c, line: lineNo})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if in.Len() == 0 {
		return nil, fmt.Errorf("topo: edge list: no channels")
	}
	g := New(in.Len())
	caps := make([]float64, len(rows))
	for _, rw := range rows {
		if g.ChannelIndex(rw.a, rw.b) >= 0 {
			return nil, fmt.Errorf("topo: line %d: duplicate channel %s-%s",
				rw.line, in.Name(rw.a), in.Name(rw.b))
		}
		idx, err := g.AddChannel(rw.a, rw.b)
		if err != nil {
			return nil, fmt.Errorf("topo: line %d: %w", rw.line, err)
		}
		caps[idx] = rw.cap
	}
	return &Snapshot{Graph: g, Names: in, Capacity: caps}, nil
}

// WriteLNGraphJSON serialises a snapshot in the lnd `describegraph`
// shape ReadLNGraphJSON ingests. Node order is NodeID order and edge
// order is channel-index order, so a write/read round trip reproduces
// the snapshot exactly: same IDs, same channel indices, same
// capacities.
func WriteLNGraphJSON(w io.Writer, snap *Snapshot) error {
	dump := lnGraphJSON{
		Nodes: make([]lnNodeJSON, snap.Graph.NumNodes()),
		Edges: make([]lnEdgeJSON, snap.Graph.NumChannels()),
	}
	for i := range dump.Nodes {
		dump.Nodes[i].PubKey = snap.name(NodeID(i))
	}
	for i, e := range snap.Graph.Channels() {
		dump.Edges[i] = lnEdgeJSON{
			Node1Pub: snap.name(e.A),
			Node2Pub: snap.name(e.B),
			Capacity: flexNum(snap.Capacity[i]),
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(dump)
}

// WriteRippleEdgeList serialises a snapshot in the capacity edge-list
// shape ReadRippleEdgeList ingests, one channel per line in
// channel-index order. Because the reader interns node keys in
// first-seen order, a round trip through this format preserves the
// named topology and capacities but may renumber NodeIDs of nodes
// whose first appearance moves; WriteLNGraphJSON is the exact format.
// Node names the format cannot represent — empty, containing
// whitespace, or starting with the comment character '#' (channel
// normalisation can move a name to line-leading position, where the
// reader would swallow it as a comment) — are rejected with an error
// rather than written as a file that reads back differently.
func WriteRippleEdgeList(w io.Writer, snap *Snapshot) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "# flash-snapshot nodes=%d channels=%d\n",
		snap.Graph.NumNodes(), snap.Graph.NumChannels()); err != nil {
		return err
	}
	for i, e := range snap.Graph.Channels() {
		for _, id := range [2]NodeID{e.A, e.B} {
			if err := checkEdgeListName(snap.name(id)); err != nil {
				return fmt.Errorf("topo: channel %d: %w", i, err)
			}
		}
		if _, err := fmt.Fprintf(bw, "%s %s %s\n",
			snap.name(e.A), snap.name(e.B),
			strconv.FormatFloat(snap.Capacity[i], 'g', -1, 64)); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// checkEdgeListName rejects node names the edge-list format cannot
// round-trip.
func checkEdgeListName(name string) error {
	switch {
	case name == "":
		return fmt.Errorf("empty node name")
	case strings.HasPrefix(name, "#"):
		return fmt.Errorf("node name %q starts with the comment character", name)
	case strings.IndexFunc(name, unicode.IsSpace) >= 0:
		return fmt.Errorf("node name %q contains whitespace", name)
	}
	return nil
}

// name returns the external key of id, falling back to the decimal ID
// for snapshots without an interner.
func (s *Snapshot) name(id NodeID) string {
	if s.Names != nil && int(id) < s.Names.Len() {
		return s.Names.Name(id)
	}
	return strconv.Itoa(int(id))
}

// IsLNGraphPath reports whether a snapshot file's extension selects
// the LN channel-graph JSON format: ".json", in any case. Every other
// path is a capacity edge list.
func IsLNGraphPath(path string) bool {
	return strings.HasSuffix(strings.ToLower(path), ".json")
}

// LoadSnapshotFile ingests a snapshot from disk in the format
// IsLNGraphPath selects.
func LoadSnapshotFile(path string) (*Snapshot, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	br := bufio.NewReader(f)
	if IsLNGraphPath(path) {
		snap, err := ReadLNGraphJSON(br)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		return snap, nil
	}
	snap, err := ReadRippleEdgeList(br)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return snap, nil
}

// WriteSnapshotFile writes snap to disk in the format IsLNGraphPath
// selects, so LoadSnapshotFile reads it back.
func WriteSnapshotFile(path string, snap *Snapshot) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	write := WriteRippleEdgeList
	if IsLNGraphPath(path) {
		write = WriteLNGraphJSON
	}
	if err := write(f, snap); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return f.Close()
}

// GenerateSyntheticSnapshot builds a seeded synthetic snapshot of the
// named kind — "ripple", "lightning" or "testbed", matching the
// simulator's topology models — with capacities drawn from the paper's
// funding distributions (log-normal with median ≈$250 for Ripple,
// ≈500k satoshi for Lightning, uniform [1000,1500) for the testbed).
// Node keys are "n0".."n<N-1>". The same (kind, n, seed) always yields
// the same snapshot, so generated files are reproducible fixtures for
// scale benchmarks.
func GenerateSyntheticSnapshot(kind string, n int, seed int64) (*Snapshot, error) {
	rng := rand.New(rand.NewSource(seed))
	var (
		g   *Graph
		err error
	)
	switch kind {
	case "ripple":
		g, err = RippleLike(n, rng)
	case "lightning":
		g, err = LightningLike(n, rng)
	case "testbed":
		g, err = WattsStrogatz(n, 4, 0.3, rng)
	default:
		return nil, fmt.Errorf("topo: unknown snapshot kind %q", kind)
	}
	if err != nil {
		return nil, err
	}
	in := NewInterner(n)
	for i := 0; i < n; i++ {
		in.Intern("n" + strconv.Itoa(i))
	}
	caps := make([]float64, g.NumChannels())
	for i := range caps {
		switch kind {
		case "ripple":
			caps[i] = 250 * math.Exp(rng.NormFloat64()*1.5)
		case "lightning":
			caps[i] = 500000 * math.Exp(rng.NormFloat64()*2.0)
		default:
			caps[i] = 1000 + rng.Float64()*500
		}
	}
	return &Snapshot{Graph: g, Names: in, Capacity: caps}, nil
}
