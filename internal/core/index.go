package core

import (
	"slices"
	"sync"

	"repro/internal/topo"
)

const (
	// indexSlack is how many references a channelIndex may hold beyond
	// twice the live ones before it sweeps: small tables never sweep.
	indexSlack = 1024
	// References are allocated 1<<chunkBits at a time.
	chunkBits = 9
)

// channelIndex is the routing tables read backwards: for each channel
// (topo.Edge, the canonical node pair), the table entries whose cached
// paths — live set or replacement pool — cross it, so that
// InvalidateChannel goes straight to the entries it drops instead of
// walking every path of every sender. A Flash has one, made by New and
// shared by all its tables.
//
// Lock order: a table's mu may be held when the index's is taken (that is
// how entries register), never the reverse. Whoever needs both the other
// way round — InvalidateChannel — takes a channel's list out of the index
// under the index lock, lets go, and only then locks tables, one at a
// time, checking under each that the entry is still in it.
//
// An entry registers once under each of its channels, when it gets paths,
// and never unregisters. Removal (TTL, cap, threshold move, invalidation)
// only sets tableEntry.dead, and the index forgets dead references when it
// next meets them: detach leaves them out, and add sweeps the whole index
// once it holds more than twice what the last sweep kept plus indexSlack.
// So the index never pins more removed entries than that, a sweep is paid
// for by the registrations since the last one, and what an invalidation
// walks beyond the entries it drops are references to entries already
// gone, each met once.
//
// A reference is two numbers, its entry's id and the next reference of the
// channel, in arrays that hold no pointers: an entry is ten or so
// references, and as pointers they would be half again what the collector
// has to mark in a router's tables. Only entries maps ids back to entries,
// one pointer each. An id is reused only after a sweep has removed every
// reference that names it.
type channelIndex struct {
	mu      sync.Mutex
	heads   map[topo.Edge]uint32 // a channel's first reference; 0 ends a list
	chunks  [][]indexRef         // reference r is chunks[r>>chunkBits][r&(1<<chunkBits-1)]
	issued  uint32               // references ever handed out, counting 0
	free    uint32               // unused references, a list through next
	entries []*tableEntry        // by tableEntry.id; nil while the id is unused
	freeIDs []uint32
	size    int // references held, dead ones included
	kept    int // references the last sweep kept
}

type indexRef struct{ entry, next uint32 }

func newChannelIndex() *channelIndex {
	return &channelIndex{
		heads:   make(map[topo.Edge]uint32),
		issued:  1,
		entries: make([]*tableEntry, 1), // id 0: not registered
	}
}

func (x *channelIndex) ref(r uint32) *indexRef {
	return &x.chunks[r>>chunkBits][r&(1<<chunkBits-1)]
}

// link puts a reference to entry id at the head of channel c's list.
func (x *channelIndex) link(c topo.Edge, id uint32) {
	r := x.free
	if r != 0 {
		x.free = x.ref(r).next
	} else {
		r = x.issued
		x.issued++
		if int(r>>chunkBits) == len(x.chunks) {
			x.chunks = append(x.chunks, make([]indexRef, 1<<chunkBits))
		}
	}
	*x.ref(r) = indexRef{entry: id, next: x.heads[c]}
	x.heads[c] = r
	x.size++
}

// unlink takes reference r out of its list, given the link that leads to
// it, and returns the reference after it.
func (x *channelIndex) unlink(link *uint32, r uint32) uint32 {
	ref := x.ref(r)
	next := ref.next
	*link = next
	ref.next, x.free = x.free, r
	x.size--
	return next
}

// channelsOf appends to buf the channels of paths that buf does not hold
// yet. A pair's Yen paths share most of theirs, and a dozen channels are
// searched faster than hashed.
func channelsOf(buf []topo.Edge, paths [][]topo.NodeID) []topo.Edge {
	for _, p := range paths {
		for i := 0; i+1 < len(p); i++ {
			if c := topo.NewEdge(p[i], p[i+1]); !slices.Contains(buf, c) {
				buf = append(buf, c)
			}
		}
	}
	return buf
}

// add registers e under the channels of paths, but for those of known,
// the paths it registered before. The caller holds e's table lock, so e
// is not removed meanwhile; an entry removed before (a payment may still
// hold one, and replace its dead paths) stays out: its id may be another's.
func (x *channelIndex) add(e *tableEntry, paths, known [][]topo.NodeID) {
	var buf [32]topo.Edge
	old := channelsOf(buf[:0], known)
	chans := channelsOf(old, paths)[len(old):]
	if len(chans) == 0 || e.dead.Load() {
		return
	}
	x.mu.Lock()
	defer x.mu.Unlock()
	if e.id == 0 {
		if n := len(x.freeIDs); n > 0 {
			e.id, x.freeIDs = x.freeIDs[n-1], x.freeIDs[:n-1]
			x.entries[e.id] = e
		} else {
			e.id = uint32(len(x.entries))
			x.entries = append(x.entries, e)
		}
	}
	for _, c := range chans {
		x.link(c, e.id)
	}
	if x.size > 2*x.kept+indexSlack {
		x.sweep()
	}
}

// sweep frees the ids of removed entries, and then every reference that
// names a freed id: an entry removed while the sweep runs keeps both until
// the next one. The index lock is held.
func (x *channelIndex) sweep() {
	for id, e := range x.entries {
		if e != nil && e.dead.Load() {
			x.entries[id] = nil
			x.freeIDs = append(x.freeIDs, uint32(id))
		}
	}
	for c, head := range x.heads {
		link := &head
		for r := head; r != 0; {
			if ref := x.ref(r); x.entries[ref.entry] == nil {
				r = x.unlink(link, r)
			} else {
				link, r = &ref.next, ref.next
			}
		}
		if head == 0 {
			delete(x.heads, c)
		} else {
			x.heads[c] = head
		}
	}
	x.kept = x.size
}

// detach takes the list of channel u–v out of the index and returns its
// entries that are still in their tables: the ones that crossed the
// channel when they registered, each once. The caller must hold no table
// lock.
func (x *channelIndex) detach(u, v topo.NodeID) []*tableEntry {
	c := topo.NewEdge(u, v)
	x.mu.Lock()
	defer x.mu.Unlock()
	var users []*tableEntry
	head := x.heads[c]
	for head != 0 {
		if e := x.entries[x.ref(head).entry]; !e.dead.Load() {
			users = append(users, e)
		}
		head = x.unlink(&head, head)
	}
	delete(x.heads, c)
	return users
}
