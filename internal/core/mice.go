package core

import (
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/graph"
	"repro/internal/route"
	"repro/internal/topo"
)

// replacementPool is how many Yen paths beyond M are computed on a
// routing-table miss, to serve as cheap replacements when a cached path
// dies ("Flash replaces it with the next top shortest path", §3.3).
// Computing them up front bounds per-payment path-finding work: a
// replacement is a pop from the pool, never a fresh Yen run.
const replacementPool = 4

// routingTable is one sender's cache of paths to its recurring
// receivers (§3.3), guarded by its own lock — the sharding unit that
// lets payments from different senders route without contending. clock
// counts payments routed by this sender and drives TTL eviction.
//
// Entries are additionally threaded on an intrusive doubly-linked list
// in ascending lastAccess order (head oldest, tail most recent). The
// list makes both eviction policies O(evicted) instead of O(entries):
// TTL eviction pops stale entries off the head — the same set a full
// map scan would find, since list order is lastAccess order — and the
// size cap (Config.TableCap) evicts the head when an insert overflows.
type routingTable struct {
	mu         sync.Mutex
	entries    map[topo.NodeID]*tableEntry
	head, tail *tableEntry // LRU list: head oldest, tail newest
	clock      int
}

// unlink removes e from the LRU list (e must be on it).
func (t *routingTable) unlink(e *tableEntry) {
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
func (t *routingTable) pushBack(e *tableEntry) {
	e.prev, e.next = t.tail, nil
	if t.tail != nil {
		t.tail.next = e
	} else {
		t.head = e
	}
	t.tail = e
}

// removeLocked drops e from both the map and the LRU list, and marks it
// dead for the channel index, which forgets it lazily. Every removal
// goes through here.
func (t *routingTable) removeLocked(e *tableEntry) {
	delete(t.entries, e.receiver)
	t.unlink(e)
	e.dead.Store(true)
}

// tableEntry caches the top-m shortest paths to one receiver. all is
// the extended Yen list (computed once, lazily, on the first dead-path
// replacement): the topology is static, so the candidate paths for a
// pair never change — only which of them currently have balance — and
// replacements cycle through all via cursor without re-running Yen.
// Entries are accessed only under their table's lock — but for dead and
// id, which the channel index reads under its own; the cached path slices
// themselves are immutable once created, so a path handed out under the
// lock stays valid after release. Every channel of paths and all is
// registered in the router's channelIndex, which is how InvalidateChannel
// finds the entry.
type tableEntry struct {
	table      *routingTable // owner, whose lock guards the entry; immutable
	dead       atomic.Bool   // set by removeLocked, under the table lock
	id         uint32        // in the channel index, whose lock guards it; 0 until registered
	receiver   topo.NodeID   // map key, needed to evict via the LRU list
	prev, next *tableEntry   // intrusive LRU list links
	paths      [][]topo.NodeID
	all        [][]topo.NodeID // extended Yen list, nil until first needed
	cursor     int             // rotation position within all
	lastAccess int

	// maxAmount is the largest payment this entry ever served — the
	// classification evidence SetThreshold consults: when the elephant
	// threshold drops below it, this receiver's recurring traffic is no
	// longer mice traffic and the entry is invalidated.
	maxAmount float64
}

// tableFor returns (creating if needed) the routing table of sender,
// taking only the outer map lock — read-locked on the hot path.
func (f *Flash) tableFor(sender topo.NodeID) *routingTable {
	f.tablesMu.RLock()
	t, ok := f.tables[sender]
	f.tablesMu.RUnlock()
	if ok {
		return t
	}
	f.tablesMu.Lock()
	defer f.tablesMu.Unlock()
	if t, ok := f.tables[sender]; ok {
		return t
	}
	t = &routingTable{entries: make(map[topo.NodeID]*tableEntry)}
	f.tables[sender] = t
	return t
}

// lookupPaths returns the sender's table and the cached entry for
// receiver, computing the top-M Yen shortest paths on a miss ("Upon
// seeing a new receiver that does not exist in the routing table, the
// node computes top-m shortest paths"). It also advances the TTL clock,
// evicts stale entries, and records amount as classification evidence
// for adaptive threshold swaps (see tableEntry.maxAmount). The Yen
// computation runs under the sender's table lock, which blocks only
// that sender's other payments.
func (f *Flash) lookupPaths(g *topo.Graph, sender, receiver topo.NodeID, amount float64) (*routingTable, *tableEntry) {
	t := f.tableFor(sender)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.clock++
	if ttl := f.cfg.TableTTL; ttl > 0 {
		// The LRU list is in lastAccess order, so the stale entries are
		// exactly the prefix at the head — O(evicted), not O(entries).
		for t.head != nil && t.clock-t.head.lastAccess > ttl {
			t.removeLocked(t.head)
		}
	}
	if e, ok := t.entries[receiver]; ok {
		t.unlink(e)
		e.lastAccess = t.clock
		t.pushBack(e)
		if amount > e.maxAmount {
			e.maxAmount = amount
		}
		f.tableHits.Add(1)
		return t, e
	}
	f.tableMisses.Add(1)
	// A miss computes exactly the paper's top-m paths; the replacement
	// pool is only materialised when a path actually dies (most entries
	// never need one, so the common case stays cheap).
	e := &tableEntry{
		table:      t,
		receiver:   receiver,
		paths:      graph.YenKSP(g, sender, receiver, f.cfg.M),
		lastAccess: t.clock,
		maxAmount:  amount,
	}
	t.entries[receiver] = e
	t.pushBack(e)
	f.index.add(e, e.paths, nil)
	f.enforceCapLocked(t)
	return t, e
}

// enforceCapLocked evicts least-recently-used entries until the table
// respects Config.TableCap. Cap 0 (the default) means unbounded —
// byte-identical behaviour to the uncapped table.
func (f *Flash) enforceCapLocked(t *routingTable) {
	cap := f.cfg.TableCap
	if cap <= 0 {
		return
	}
	for len(t.entries) > cap && t.head != nil {
		t.removeLocked(t.head)
		f.tableEvictions.Add(1)
	}
}

// pathAt returns entry's path at slot under the table lock, or nil when
// a concurrent replacement shrank the entry below slot. The returned
// slice is immutable and safe to use after the lock is released.
func (t *routingTable) pathAt(e *tableEntry, slot int) []topo.NodeID {
	t.mu.Lock()
	defer t.mu.Unlock()
	if slot >= len(e.paths) {
		return nil
	}
	return e.paths[slot]
}

// replaceDeadPath swaps out entry's path at slot with the next top
// shortest path ("when a payment encounters an unaccessible path with
// zero effective capacity or no connectivity, Flash replaces it with
// the next top shortest path"). The extended Yen list is computed once
// per entry on first need; subsequent replacements rotate through it —
// a path that was dead earlier may have revived, since channel balances
// move in both directions. expected is the path the caller observed at
// slot: if a concurrent payment already replaced it, nothing is changed
// and nil is returned. Returns the replacement, or nil when the pair
// has no alternative paths at all (the slot is then dropped).
func (f *Flash) replaceDeadPath(g *topo.Graph, sender topo.NodeID, t *routingTable, e *tableEntry, slot int, expected []topo.NodeID) []topo.NodeID {
	t.mu.Lock()
	defer t.mu.Unlock()
	if slot >= len(e.paths) || !slices.Equal(e.paths[slot], expected) {
		return nil
	}
	if e.all == nil {
		e.all = graph.YenKSP(g, sender, e.receiver, f.cfg.M+replacementPool)
		e.cursor = len(e.paths) % max(len(e.all), 1)
		f.index.add(e, e.all, e.paths)
	}
	if len(e.all) <= 1 {
		e.paths = append(e.paths[:slot], e.paths[slot+1:]...)
		return nil
	}
	// Pick the next rotation candidate not currently in the live set.
	for tries := 0; tries < len(e.all); tries++ {
		cand := e.all[e.cursor%len(e.all)]
		e.cursor++
		if !containsPath(e.paths, cand) {
			e.paths[slot] = cand
			f.pathsReplaced.Add(1)
			return cand
		}
	}
	e.paths = append(e.paths[:slot], e.paths[slot+1:]...)
	return nil
}

// containsPath reports whether set holds an identical path.
func containsPath(set [][]topo.NodeID, p []topo.NodeID) bool {
	return slices.ContainsFunc(set, func(q []topo.NodeID) bool {
		return slices.Equal(q, p)
	})
}

// routeMice is the paper's mice algorithm (§3.3): look the receiver up
// in the routing table, then run a trial-and-error loop over the cached
// paths in random order — send the full remainder without probing; only
// when that fails probe the path and send a partial payment of its
// effective capacity.
func (f *Flash) routeMice(s route.Session) error {
	g := s.Graph()
	tbl, entry := f.lookupPaths(g, s.Sender(), s.Receiver(), s.Demand())
	ob := orderPool.Get().(*[]int)
	defer orderPool.Put(ob)
	order := f.pathOrder(s, tbl, entry, (*ob)[:0])
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
		path := tbl.pathAt(entry, slot)
		if path == nil {
			continue // a replacement shrank the table mid-loop
		}
		// First try the full remainder directly — no probing (this is
		// where mice routing wins its overhead back: most mice succeed
		// on the first try).
		if err := s.Hold(path, remaining); err == nil {
			remaining = 0
			break
		}
		// Rejected: probe to learn the effective capacity cp and send a
		// partial payment of that volume.
		info, err := s.Probe(path)
		if err != nil {
			continue
		}
		cp := route.MinAvailable(info)
		if cp <= route.Epsilon {
			// Dead path: replace with the next pooled Yen path and, if
			// one exists, give it a chance for this payment too.
			if next := f.replaceDeadPath(g, s.Sender(), tbl, entry, slot, path); next != nil {
				held := route.HoldUpTo(s, next, remaining)
				remaining -= held
			}
			continue
		}
		amount := cp
		if amount > remaining {
			amount = remaining
		}
		if err := s.Hold(path, amount); err == nil {
			remaining -= amount
		}
	}
	return route.Finish(s, route.ErrInsufficient)
}

// orderPool recycles the mice path-order buffers: a slot permutation is
// needed per mice payment and discarded immediately after the
// trial-and-error loop, so pooling keeps the steady state alloc-free.
var orderPool = sync.Pool{New: func() any { return new([]int) }}

// pathOrder returns the order in which to try table paths: random by
// default ("Flash randomly picks the paths to better load balance them
// without knowing their instantaneous capacities"), or ascending length
// when the FixedMiceOrder ablation is on. The shuffle draws from the
// session's per-payment RNG when one is attached (route.RandSource), so
// concurrent replays make scheduling-independent random choices; the
// router's shared seeded RNG is the sequential fallback. The result is
// built in buf (grown as needed).
func (f *Flash) pathOrder(s route.Session, t *routingTable, e *tableEntry, buf []int) []int {
	t.mu.Lock()
	n := len(e.paths)
	var lengths []int
	if f.cfg.FixedMiceOrder {
		lengths = make([]int, n)
		for i, p := range e.paths {
			lengths[i] = len(p)
		}
	}
	t.mu.Unlock()

	order := buf
	for i := 0; i < n; i++ {
		order = append(order, i)
	}
	if f.cfg.FixedMiceOrder {
		sort.Slice(order, func(a, b int) bool {
			return lengths[order[a]] < lengths[order[b]]
		})
		return order
	}
	if rs, ok := s.(route.RandSource); ok {
		if rng := rs.RNG(); rng != nil {
			rng.Shuffle(n, func(i, j int) { order[i], order[j] = order[j], order[i] })
			return order
		}
	}
	f.rngMu.Lock()
	f.rng.Shuffle(n, func(i, j int) { order[i], order[j] = order[j], order[i] })
	f.rngMu.Unlock()
	return order
}
