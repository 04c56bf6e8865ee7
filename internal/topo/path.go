package topo

import "slices"

// Path is a hop path: a path through a Graph as the search that found it
// saw it, carrying the channel each hop crosses. A path of n nodes is
// 2n-1 elements in one array — the n nodes, then the channel indices of
// its n-1 hops in order — so the channels share the allocation that holds
// the nodes, and a consumer (a payment session, a routing table's index,
// the elephant router's probed state) reads a hop's channel instead of
// looking it up. The zero Path is no path.
//
// A Path's channels are only as good as whoever built it: the searches in
// package graph emit correct ones, and pcn.Tx checks every hop it is
// handed against the graph. A Path is immutable once built; copies share
// its array.
type Path struct {
	elems []NodeID // the nodes, then the hops' channel indices
}

// PathOf returns the hop path laid out in elems — n nodes, then the
// channel indices of its n-1 hops — as a Path aliasing elems. nil gives
// the zero Path; an even length is no layout, and PathOf panics on it.
func PathOf(elems []NodeID) Path {
	if len(elems)%2 == 0 && elems != nil {
		panic("topo: a hop path of n nodes has 2n-1 elements")
	}
	return Path{elems}
}

// MakePath returns the hop path over nodes whose hop i crosses channel
// chans[i], in an array of its own; no nodes give the zero Path.
// len(chans) must be len(nodes)-1, or MakePath panics.
//
//flashvet:allow testonly/unused builds the hop-path fixtures of the topo, graph, pcn, route and core tests
func MakePath(nodes []NodeID, chans []int32) Path {
	if len(nodes) == 0 {
		return Path{}
	}
	if len(chans) != len(nodes)-1 {
		panic("topo: a path of n nodes has n-1 channels")
	}
	elems := append(make([]NodeID, 0, len(nodes)+len(chans)), nodes...)
	for _, c := range chans {
		elems = append(elems, NodeID(c))
	}
	return PathOf(elems)
}

// AppendTo appends a copy of p to arena and returns the copy, its
// capacity ending with it so that no append to the arena reaches it, and
// the grown arena.
func (p Path) AppendTo(arena []NodeID) (Path, []NodeID) {
	if p.elems == nil {
		return Path{}, arena
	}
	start := len(arena)
	arena = append(arena, p.elems...)
	return Path{arena[start:len(arena):len(arena)]}, arena
}

// IsZero reports whether p is the zero Path: no path.
func (p Path) IsZero() bool { return p.elems == nil }

// Nodes returns the path's nodes, a read-only view into p with its
// capacity capped at its length; nil for the zero Path.
func (p Path) Nodes() []NodeID {
	n := (len(p.elems) + 1) / 2
	return p.elems[:n:n]
}

// Hops returns the path's hop count: 0 for the zero Path and a
// single-node one.
func (p Path) Hops() int { return len(p.elems) / 2 }

// Chan returns the index of the channel hop i crosses.
func (p Path) Chan(i int) int { return int(p.elems[(len(p.elems)+1)/2+i]) }

// Hop returns hop i: its endpoints and the index of the channel between
// them.
func (p Path) Hop(i int) (u, v NodeID, ch int) {
	n := (len(p.elems) + 1) / 2
	return p.elems[i], p.elems[i+1], int(p.elems[n+i])
}

// Equal reports whether p and q are the same path: the same nodes over
// the same channels.
func (p Path) Equal(q Path) bool { return slices.Equal(p.elems, q.elems) }

// Len returns the number of elements p occupies in an array: 2n-1 for n
// nodes.
func (p Path) Len() int { return len(p.elems) }
