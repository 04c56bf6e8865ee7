package topo

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// MaxEdgeListNodes bounds the node count ReadEdgeList accepts, whether a
// header declares it or a node ID implies it. The graph allocates per
// node, so without the bound a one-line file could demand more memory
// than the machine has. The largest workload has 10,000 nodes.
const MaxEdgeListNodes = 1 << 20

// ReadEdgeList parses one channel "<a> <b>" per line. A header line
// "# flash-topology nodes=<n> channels=<c>" sizes the graph; without it
// the largest node ID seen does. Other lines starting with '#' are
// comments. Real crawl data (e.g. the Ripple dataset the
// paper uses) can be converted to this format and dropped in.
func ReadEdgeList(r io.Reader) (*Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<24)
	var pairs [][2]NodeID
	declared := -1
	maxID := NodeID(-1)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			if n, ok := parseHeaderNodes(line); ok {
				if n < 0 || n > MaxEdgeListNodes {
					return nil, fmt.Errorf("topo: line %d: header declares %d nodes, want 0..%d", lineNo, n, MaxEdgeListNodes)
				}
				declared = n
			}
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			return nil, fmt.Errorf("topo: line %d: %q: want two node ids", lineNo, line)
		}
		var pair [2]NodeID
		for i, f := range fields {
			id, err := strconv.Atoi(f)
			if err != nil || id < 0 || id >= MaxEdgeListNodes {
				return nil, fmt.Errorf("topo: line %d: node id %q is not in [0, %d)", lineNo, f, MaxEdgeListNodes)
			}
			pair[i] = NodeID(id)
			maxID = max(maxID, pair[i])
		}
		pairs = append(pairs, pair)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	n := int(maxID) + 1
	if declared >= 0 {
		if declared < n {
			return nil, fmt.Errorf("topo: header declares %d nodes but edge list references node %d", declared, maxID)
		}
		n = declared
	}
	g := New(n)
	for _, p := range pairs {
		if _, err := g.AddChannel(p[0], p[1]); err != nil {
			return nil, err
		}
	}
	return g, nil
}

func parseHeaderNodes(line string) (int, bool) {
	for _, field := range strings.Fields(line) {
		var n int
		if _, err := fmt.Sscanf(field, "nodes=%d", &n); err == nil {
			return n, true
		}
	}
	return 0, false
}
