package core

import (
	"slices"

	"repro/internal/topo"
)

// indexSlack is how many references a channelIndex may hold beyond
// twice the live ones before it sweeps: small tables never sweep.
const indexSlack = 1024

// channelIndex is the routing table read backwards: for each channel, by
// its index in the graph, the table entries whose cached paths — live set
// or replacement pool — cross it, so that InvalidateChannel goes straight
// to the entries it drops instead of walking every path of every sender.
// The paths carry their channels, so registering an entry looks nothing
// up; InvalidateChannel, which is handed a node pair, looks its channel up
// once, on the graph the last registered paths were found on. A Flash has
// one, beside its table, and an entry is in the table exactly when it is
// not dead.
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
// channel, in one slice that holds no pointers: an entry is ten or so
// references, and as pointers they would be half again what the collector
// has to mark in a router's tables. Only entries maps ids back to entries,
// one pointer each. An id is reused only after a sweep has removed every
// reference that names it.
type channelIndex struct {
	g       *topo.Graph   // the graph the last registered paths were found on
	heads   []uint32      // by channel: its first reference; 0 ends a list
	refs    []indexRef    // by reference; refs[0] is never handed out
	free    uint32        // unused references, a list through next
	entries []*tableEntry // by tableEntry.id; nil while the id is unused
	freeIDs []uint32
	size    int     // references held, dead ones included
	kept    int     // references the last sweep kept
	chans   []int32 // add's buffer of channels to register
}

type indexRef struct{ entry, next uint32 }

func newChannelIndex() channelIndex {
	return channelIndex{
		// Room for 511 references before the slice first grows, so the
		// small routers a testbed builds by the dozen allocate once.
		refs:    make([]indexRef, 1, 512),
		entries: make([]*tableEntry, 1), // id 0: not registered
	}
}

// link puts a reference to entry id at the head of channel c's list.
func (x *channelIndex) link(c int32, id uint32) {
	r := x.free
	if r != 0 {
		x.free = x.refs[r].next
	} else {
		r = uint32(len(x.refs))
		if len(x.refs) == cap(x.refs) {
			// Double, where append would grow a long slice by a quarter
			// and leave four times its final size behind as garbage.
			x.refs = slices.Grow(x.refs, len(x.refs))
		}
		x.refs = append(x.refs, indexRef{})
	}
	x.refs[r] = indexRef{entry: id, next: x.heads[c]}
	x.heads[c] = r
	x.size++
}

// unlink takes reference r out of its list, given the link that leads to
// it, and returns the reference after it.
func (x *channelIndex) unlink(link *uint32, r uint32) uint32 {
	ref := &x.refs[r]
	next := ref.next
	*link = next
	ref.next, x.free = x.free, r
	x.size--
	return next
}

// channelsOf appends to buf the channels of paths that buf does not hold
// yet. A pair's Yen paths share most of theirs, and a dozen channels are
// searched faster than hashed.
func channelsOf(buf []int32, paths []topo.Path) []int32 {
	for _, p := range paths {
		for i := range p.Hops() {
			if c := int32(p.Chan(i)); !slices.Contains(buf, c) {
				buf = append(buf, c)
			}
		}
	}
	return buf
}

// add registers e under the channels of paths, found on g, but for those
// of known, the paths it registered before. An entry removed before (a
// payment may still hold one, and replace its dead paths) stays out: its
// id may be another's.
func (x *channelIndex) add(g *topo.Graph, e *tableEntry, paths, known []topo.Path) {
	if e.dead {
		return
	}
	old := channelsOf(x.chans[:0], known)
	x.chans = channelsOf(old, paths)
	chans := x.chans[len(old):]
	if len(chans) == 0 {
		return
	}
	x.g = g
	if e.id == 0 {
		if n := len(x.freeIDs); n > 0 {
			e.id, x.freeIDs = x.freeIDs[n-1], x.freeIDs[:n-1]
			x.entries[e.id] = e
		} else {
			e.id = uint32(len(x.entries))
			x.entries = append(x.entries, e)
		}
	}
	if m := g.NumChannels(); len(x.heads) < m {
		x.heads = append(x.heads, make([]uint32, m-len(x.heads))...)
	}
	for _, c := range chans {
		x.link(c, e.id)
	}
	if x.size > 2*x.kept+indexSlack {
		x.sweep()
	}
}

// sweep frees the ids of removed entries, and then every reference that
// names a freed id.
func (x *channelIndex) sweep() {
	for id, e := range x.entries {
		if e != nil && e.dead {
			x.entries[id] = nil
			x.freeIDs = append(x.freeIDs, uint32(id))
		}
	}
	for c := range x.heads {
		link := &x.heads[c]
		for r := *link; r != 0; {
			if ref := &x.refs[r]; x.entries[ref.entry] == nil {
				r = x.unlink(link, r)
			} else {
				link, r = &ref.next, ref.next
			}
		}
	}
	x.kept = x.size
}

// detach takes the list of channel u–v out of the index and hands remove
// each of its entries that is still in the table: the ones that crossed
// the channel when they registered, each once. It returns how many it
// handed over. The node pair is InvalidateChannel's input, so this is
// where its channel is looked up, once.
func (x *channelIndex) detach(u, v topo.NodeID, remove func(*tableEntry)) int {
	if x.g == nil {
		return 0 // nothing registered yet
	}
	c := x.g.ChannelIndex(u, v)
	if c < 0 || c >= len(x.heads) {
		return 0 // no channel, or one no path crossed
	}
	removed := 0
	head := &x.heads[c]
	for *head != 0 {
		if e := x.entries[x.refs[*head].entry]; !e.dead {
			remove(e)
			removed++
		}
		x.unlink(head, *head)
	}
	return removed
}
