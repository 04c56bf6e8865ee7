package baseline

import "repro/internal/topo"

// pathTable memoises a static router's routes, as hop paths, per
// sender/receiver pair.
// A static baseline's route depends only on the topology, so a pair's
// first payment searches and every later payment or retry of the pair
// reuses the entry. Entries are immutable and shared: sessions never
// retain or modify a path.
//
// The table is keyed on the graph alone: a graph is frozen before a
// router sees it, so its routes never go stale, and only another graph
// empties the table. The zero value is an empty table with caching on.
type pathTable[P any] struct {
	off     bool
	graph   *topo.Graph
	entries map[pairKey]P
	arena   topo.PathArena // where find keeps its hop paths
}

type pairKey struct {
	s, t topo.NodeID
}

// SetCaching turns the table on or off. Caching never changes a route;
// it only removes repeated searches. The testbed turns it off so that
// processing delay covers a path computation per payment, as in the
// paper's prototype (Figures 12–13).
func (pt *pathTable[P]) SetCaching(on bool) { pt.off = !on }

// get returns the entry for the pair s→t on g. find computes it on the
// pair's first payment, or on every payment with caching off; it may
// keep paths in the arena.
func (pt *pathTable[P]) get(g *topo.Graph, s, t topo.NodeID, find func(*topo.Graph, topo.NodeID, topo.NodeID) P) P {
	if pt.off {
		return find(g, s, t)
	}
	if pt.graph != g {
		pt.graph = g
		pt.entries = make(map[pairKey]P)
	}
	key := pairKey{s, t}
	p, ok := pt.entries[key]
	if !ok {
		p = find(g, s, t)
		pt.entries[key] = p
	}
	return p
}
