package core

import (
	"slices"
	"sort"

	"repro/internal/graph"
	"repro/internal/mem"
	"repro/internal/route"
	"repro/internal/topo"
)

// replacementPool is how many Yen paths beyond M an entry's
// replacement list holds, to serve as replacements when a cached path
// dies ("Flash replaces it with the next top shortest path", §3.3). A
// miss computes only the top M paths; replaceDeadPath builds the list
// lazily, on the entry's first dead path, as one Yen run for M +
// replacementPool paths that recomputes the first M. Later replacements
// rotate through the list, never a fresh Yen run.
const replacementPool = 4

// senderTable is one sender's share of the router's routing table
// (§3.3): clock counts the payments this sender has routed and drives
// TTL eviction, and size counts its entries for Config.TableCap.
//
// The sender's entries are threaded on an intrusive doubly-linked list
// in ascending lastAccess order (head oldest, tail most recent). The
// list makes both eviction policies O(evicted) instead of O(entries):
// TTL eviction pops stale entries off the head — the same set a scan of
// the sender's entries would find, since list order is lastAccess order
// — and the size cap evicts the head when an insert overflows.
type senderTable struct {
	head, tail *tableEntry // LRU list: head oldest, tail newest
	clock      int
	size       int
}

// unlink removes e from the LRU list (e must be on it).
func (t *senderTable) unlink(e *tableEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		t.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		t.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

// pushBack appends e as the most recently used entry.
func (t *senderTable) pushBack(e *tableEntry) {
	e.prev, e.next = t.tail, nil
	if t.tail != nil {
		t.tail.next = e
	} else {
		t.head = e
	}
	t.tail = e
}

// tableEntry caches the top-m shortest paths from one sender to one
// receiver. all is the extended Yen list (computed once, lazily, on the
// first dead-path replacement): the topology is static, so the candidate
// paths for a pair never change — only which of them currently have
// balance — and replacements cycle through all via cursor without
// re-running Yen. Both lists are windows of the router's path arena,
// capped at their length, so replaceDeadPath's in-place edits stay in
// the entry's own window; a path handed out stays valid, since a kept
// path's elements are never written again. Every channel of paths and
// all is registered in the router's channelIndex, which is how
// InvalidateChannel finds the entry.
//
// Entries come from the router's slab (mem.Slab), so a miss allocates
// nothing until a chunk fills, and an entry is never reused: a removed
// one's id may sit in the channel index until a sweep, and a reused
// entry would answer for that id there, dropped by an invalidation of a
// channel only its predecessor crossed. So a chunk of up to 256 entries,
// and the arena chunks its entries' paths lie in, stay allocated while
// any entry in it is reachable: from the table, from the payment routing
// over it, or from the channel index until the sweep that frees its id.
type tableEntry struct {
	pair       Pair        // entry-table key; the sender names the LRU list
	dead       bool        // removed from the table; the channel index forgets it lazily
	id         uint32      // in the channel index; 0 until registered
	prev, next *tableEntry // intrusive LRU list links
	paths      []topo.Path
	all        []topo.Path // extended Yen list, nil until first needed
	cursor     int         // rotation position within all
	lastAccess int

	// maxAmount is the largest payment this entry ever served — the
	// classification evidence SetThreshold consults: when the elephant
	// threshold drops below it, this receiver's recurring traffic is no
	// longer mice traffic and the entry is invalidated.
	maxAmount float64
}

// tableOf returns sender's share of the table, growing the per-sender
// slice to cover g's nodes on the first payment from a sender beyond it.
func (f *Flash) tableOf(g *topo.Graph, sender topo.NodeID) *senderTable {
	if int(sender) >= len(f.senders) {
		n := max(g.NumNodes(), int(sender)+1)
		f.senders = append(f.senders, make([]senderTable, n-len(f.senders))...)
	}
	return &f.senders[sender]
}

// remove drops e from the entry table and its sender's LRU list, and
// marks it dead for the channel index, which forgets it lazily. Every
// removal goes through here.
func (f *Flash) remove(e *tableEntry) {
	f.entries.remove(e.pair)
	t := &f.senders[e.pair.Sender]
	t.unlink(e)
	t.size--
	e.dead = true
}

// lookupPaths returns the cached entry for sender→receiver, computing
// the top-M Yen shortest paths on a miss ("Upon seeing a new receiver
// that does not exist in the routing table, the node computes top-m
// shortest paths") into the router's path arena. It also advances the
// sender's TTL clock, evicts its stale entries, and records amount as
// classification evidence for adaptive threshold swaps (see
// tableEntry.maxAmount).
func (f *Flash) lookupPaths(g *topo.Graph, sender, receiver topo.NodeID, amount float64) *tableEntry {
	t := f.tableOf(g, sender)
	t.clock++
	// The LRU list is in lastAccess order, so the stale entries are
	// exactly the prefix at the head — O(evicted), not O(entries).
	for t.head != nil && t.clock-t.head.lastAccess > f.ttl {
		f.remove(t.head)
	}
	pair := Pair{Sender: sender, Receiver: receiver}
	if e := f.entries.get(pair); e != nil {
		t.unlink(e)
		e.lastAccess = t.clock
		t.pushBack(e)
		if amount > e.maxAmount {
			e.maxAmount = amount
		}
		f.stats.TableHits++
		return e
	}
	f.stats.TableMisses++
	// A miss computes exactly the paper's top-m paths; the replacement
	// pool is only materialised when a path actually dies (most entries
	// never need one, so the common case stays cheap).
	paths, elems := f.arena.Room()
	e := f.slab.New()
	*e = tableEntry{
		pair:       pair,
		paths:      f.arena.Keep(graph.Yen(g, sender, receiver, f.cfg.M, nil, paths, elems)),
		lastAccess: t.clock,
		maxAmount:  amount,
	}
	f.entries.insert(e)
	t.pushBack(e)
	t.size++
	f.index.add(g, e, e.paths, nil)
	f.enforceCap(t)
	return e
}

// enforceCap evicts least-recently-used entries until the sender's
// share respects Config.TableCap. Cap 0 (the default) means unbounded —
// byte-identical behaviour to the uncapped table.
func (f *Flash) enforceCap(t *senderTable) {
	cap := f.cfg.TableCap
	if cap <= 0 {
		return
	}
	for t.size > cap && t.head != nil {
		f.remove(t.head)
		f.stats.TableEvictions++
	}
}

// replaceDeadPath swaps out entry's path at slot with the next top
// shortest path ("when a payment encounters an unaccessible path with
// zero effective capacity or no connectivity, Flash replaces it with
// the next top shortest path"). The extended Yen list is computed once
// per entry on first need, into the router's path arena; subsequent
// replacements rotate through it — a path that was dead earlier may
// have revived, since channel balances move in both directions.
// slot must index e.paths. Returns the replacement, or the zero Path
// when the pair has no alternative paths at all (the slot is then
// dropped).
func (f *Flash) replaceDeadPath(g *topo.Graph, e *tableEntry, slot int) topo.Path {
	if e.all == nil {
		paths, elems := f.arena.Room()
		e.all = f.arena.Keep(graph.Yen(g, e.pair.Sender, e.pair.Receiver, f.cfg.M+replacementPool, nil, paths, elems))
		e.cursor = len(e.paths) % max(len(e.all), 1)
		f.index.add(g, e, e.all, e.paths)
	}
	if len(e.all) <= 1 {
		e.paths = append(e.paths[:slot], e.paths[slot+1:]...)
		return topo.Path{}
	}
	// Pick the next rotation candidate not currently in the live set.
	for tries := 0; tries < len(e.all); tries++ {
		cand := e.all[e.cursor%len(e.all)]
		e.cursor++
		if !containsPath(e.paths, cand) {
			e.paths[slot] = cand
			f.stats.PathsReplaced++
			return cand
		}
	}
	e.paths = append(e.paths[:slot], e.paths[slot+1:]...)
	return topo.Path{}
}

// containsPath reports whether set holds an identical path.
func containsPath(set []topo.Path, p topo.Path) bool {
	return slices.ContainsFunc(set, p.Equal)
}

// routeMice is the paper's mice algorithm (§3.3): look the receiver up
// in the routing table, then run a trial-and-error loop over the cached
// paths in random order — send the full remainder without probing; only
// when that fails probe the path and send a partial payment of its
// effective capacity.
func (f *Flash) routeMice(s route.Session) error {
	g := s.Graph()
	entry := f.lookupPaths(g, s.Sender(), s.Receiver(), s.Demand())
	ob := orders.Get()
	defer orders.Put(ob)
	order := f.pathOrder(entry, (*ob)[:0])
	*ob = order
	if len(order) == 0 {
		if err := s.Abort(); err != nil {
			return err
		}
		return route.ErrNoRoute
	}

	remaining := s.Demand()
	for _, slot := range order {
		if remaining <= route.Epsilon {
			break
		}
		if slot >= len(entry.paths) {
			continue // a replacement without an alternative dropped a slot
		}
		path := entry.paths[slot]
		// First try the full remainder directly — no probing (this is
		// where mice routing wins its overhead back: most mice succeed
		// on the first try).
		if err := route.Hold(s, path, remaining); err == nil {
			remaining = 0
			break
		}
		// Rejected: probe to learn the effective capacity cp and send a
		// partial payment of that volume.
		info, err := route.Probe(s, path)
		if err != nil {
			continue
		}
		cp := route.MinAvailable(info)
		if cp <= route.Epsilon {
			// Dead path: replace with the next pooled Yen path and, if
			// one exists, give it a chance for this payment too.
			if next := f.replaceDeadPath(g, entry, slot); !next.IsZero() {
				held := route.HoldUpTo(s, next, remaining)
				remaining -= held
			}
			continue
		}
		amount := cp
		if amount > remaining {
			amount = remaining
		}
		if err := route.Hold(s, path, amount); err == nil {
			remaining -= amount
		}
	}
	return route.Finish(s, route.ErrInsufficient)
}

// orders holds the released mice path-order buffers: a slot permutation
// is needed per mice payment and discarded immediately after the
// trial-and-error loop, so reusing them keeps the steady state
// alloc-free. Like probedStates it is shared by every router.
var orders mem.FreeList[[]int]

// pathOrder returns the order in which to try table paths: random by
// default ("Flash randomly picks the paths to better load balance them
// without knowing their instantaneous capacities"), or ascending length
// when the FixedMiceOrder ablation is on. The shuffle draws from the
// router's seeded RNG. The result is built in buf (grown as needed).
func (f *Flash) pathOrder(e *tableEntry, buf []int) []int {
	n := len(e.paths)
	order := buf
	for i := 0; i < n; i++ {
		order = append(order, i)
	}
	if f.cfg.FixedMiceOrder {
		sort.Slice(order, func(a, b int) bool {
			return e.paths[order[a]].Hops() < e.paths[order[b]].Hops()
		})
		return order
	}
	f.rng.Shuffle(n, func(i, j int) { order[i], order[j] = order[j], order[i] })
	return order
}
