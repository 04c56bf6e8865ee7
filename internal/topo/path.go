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

// Chunk sizes of a PathArena: its element chunks double from
// firstElemChunk to maxElemChunk elements, its list chunks from
// firstListChunk to maxListChunk paths.
const (
	firstElemChunk = 1 << 8
	maxElemChunk   = 1 << 15
	firstListChunk = 1 << 4
	maxListChunk   = 1 << 11
)

// PathArena is chunked storage for hop paths kept past the search that
// found them — a routing table's — and for lists of them. Paths are
// copied into the current element chunk and lists into the current list
// chunk. A chunk without room for what is kept next is replaced by one
// twice its size, up to a bound, and stays allocated until no path or
// list kept in it is reachable. A kept path or list is a window whose
// capacity ends with it, so an append to one never reaches the next, and
// a list's owner may edit its list in place. The zero value is an empty
// arena whose first chunks are small.
type PathArena struct {
	elems []NodeID // the current element chunk: kept, then room
	lists []Path   // the current list chunk: kept, then room
}

// Room returns the unused rest of the current chunks as two empty
// slices, for a caller to append a list of paths to the first and their
// elements to the second (as graph.Yen does); Keep then keeps what was
// appended.
func (a *PathArena) Room() ([]Path, []NodeID) {
	return a.lists[len(a.lists):], a.elems[len(a.elems):]
}

// Keep keeps the list of paths that appending to Room's slices gave,
// elems being the elements appended, and returns it; an empty list is
// nil. If the appends stayed within the room, the list and its paths are
// already in place and Keep allocates nothing; otherwise it copies what
// outgrew its chunk into a new one.
func (a *PathArena) Keep(paths []Path, elems []NodeID) []Path {
	if len(paths) == 0 {
		return nil
	}
	if len(elems) <= cap(a.elems)-len(a.elems) {
		a.elems = a.elems[:len(a.elems)+len(elems)]
	} else {
		a.elems = newChunk(a.elems, len(elems), firstElemChunk, maxElemChunk)
		for i, p := range paths {
			paths[i], a.elems = p.AppendTo(a.elems)
		}
	}
	start := len(a.lists)
	if len(paths) <= cap(a.lists)-start {
		a.lists = a.lists[:start+len(paths)]
	} else {
		a.lists = append(newChunk(a.lists, len(paths), firstListChunk, maxListChunk), paths...)
		start = 0
	}
	return a.lists[start:len(a.lists):len(a.lists)]
}

// KeepPath copies p into the arena and returns the copy. The zero Path
// stays zero.
func (a *PathArena) KeepPath(p Path) Path {
	if p.IsZero() {
		return p
	}
	if cap(a.elems)-len(a.elems) < p.Len() {
		a.elems = newChunk(a.elems, p.Len(), firstElemChunk, maxElemChunk)
	}
	p, a.elems = p.AppendTo(a.elems)
	return p
}

// newChunk returns an empty chunk to follow cur: twice its capacity,
// within [first, most], and at least need.
func newChunk[T any](cur []T, need, first, most int) []T {
	return make([]T, 0, max(need, min(max(2*cap(cur), first), most)))
}
