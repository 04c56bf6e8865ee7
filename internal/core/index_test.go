package core

import (
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/topo"
)

// The scan the channel index replaced, kept as its oracle: walk every path
// of every entry of every sender.

func pathsUseChannel(paths [][]topo.NodeID, u, v topo.NodeID) bool {
	for _, p := range paths {
		for i := 0; i+1 < len(p); i++ {
			if (p[i] == u && p[i+1] == v) || (p[i] == v && p[i+1] == u) {
				return true
			}
		}
	}
	return false
}

// entryUsesChannel reports whether any cached path of e (live set or
// replacement pool) crosses the channel u–v.
func entryUsesChannel(e *tableEntry, u, v topo.NodeID) bool {
	return pathsUseChannel(e.paths, u, v) || pathsUseChannel(e.all, u, v)
}

// scanChannel is the old InvalidateChannel reading only: the entries it
// would drop.
func (f *Flash) scanChannel(u, v topo.NodeID) []*tableEntry {
	var users []*tableEntry
	for _, e := range f.liveEntries() {
		if entryUsesChannel(e, u, v) {
			users = append(users, e)
		}
	}
	return users
}

// scanInvalidateChannel is the old InvalidateChannel, loop for loop, also
// counting the entries it looks at.
func (f *Flash) scanInvalidateChannel(u, v topo.NodeID) (dropped, visited int) {
	f.tablesMu.RLock()
	for _, t := range f.tables {
		t.mu.Lock()
		for _, e := range t.entries {
			visited++
			if entryUsesChannel(e, u, v) {
				t.removeLocked(e)
				dropped++
			}
		}
		t.mu.Unlock()
	}
	f.tablesMu.RUnlock()
	f.tableInvalidations.Add(int64(dropped))
	return dropped, visited
}

// liveEntries returns every entry the tables hold.
func (f *Flash) liveEntries() []*tableEntry {
	var live []*tableEntry
	f.tablesMu.RLock()
	defer f.tablesMu.RUnlock()
	for _, t := range f.tables {
		t.mu.Lock()
		for _, e := range t.entries {
			live = append(live, e)
		}
		t.mu.Unlock()
	}
	return live
}

// checkIndex asserts the index's invariants on a quiescent router: every
// reference issued is in one list or free, and names an id in use; the
// size it keeps is the references its lists hold and respects the sweep
// bound; an id is unused exactly when it is on the free list; no live
// entry is marked dead; and every live entry is registered under every
// channel of its paths and pool, once. It returns the live references.
func checkIndex(t *testing.T, f *Flash) int {
	t.Helper()
	x := f.index
	held, liveRefs := 0, 0
	where := make(map[*tableEntry]map[topo.Edge]int)
	for c, head := range x.heads {
		if head == 0 {
			t.Fatalf("channel %v keeps an empty list", c)
		}
		for r := head; r != 0; r = x.ref(r).next {
			held++
			id := x.ref(r).entry
			e := x.entries[id]
			if e == nil || e.id != id {
				t.Fatalf("a reference under %v names id %d, held by %v", c, id, e)
			}
			if e.dead.Load() {
				continue
			}
			liveRefs++
			if where[e] == nil {
				where[e] = make(map[topo.Edge]int)
			}
			where[e][c]++
		}
	}
	if held != x.size {
		t.Fatalf("index holds %d references, counts %d", held, x.size)
	}
	free := 0
	for r := x.free; r != 0; r = x.ref(r).next {
		free++
	}
	if held+free+1 != int(x.issued) {
		t.Fatalf("%d references in lists and %d free, %d issued", held, free, x.issued-1)
	}
	if x.size > 2*x.kept+indexSlack {
		t.Fatalf("index holds %d references, over twice the %d its last sweep kept plus %d", x.size, x.kept, indexSlack)
	}
	for id, e := range x.entries {
		if (e == nil) != (id == 0 || slices.Contains(x.freeIDs, uint32(id))) {
			t.Fatalf("id %d: entry %v, free ids %v", id, e, x.freeIDs)
		}
	}
	for _, e := range f.liveEntries() {
		if e.dead.Load() {
			t.Fatalf("entry for %d is in its table and marked dead", e.receiver)
		}
		chans := channelsOf(channelsOf(nil, e.paths), e.all)
		for _, c := range chans {
			if n := where[e][c]; n != 1 {
				t.Fatalf("entry for %d registered %d times under %v, want once", e.receiver, n, c)
			}
		}
		if len(where[e]) != len(chans) {
			t.Fatalf("entry for %d registered under %d channels, its paths cross %d", e.receiver, len(where[e]), len(chans))
		}
		delete(where, e)
	}
	for e := range where {
		t.Fatalf("index holds a live reference to the entry for %d, which no table holds", e.receiver)
	}
	return liveRefs
}

// warm looks each pair up as a mouse payment does — lazily computing
// the entries that are missing — and returns how many it computed.
func warm(f *Flash, g *topo.Graph, pairs []Pair) int {
	before := f.tableMisses.Load()
	for _, p := range pairs {
		if p.Sender != p.Receiver {
			f.lookupPaths(g, p.Sender, p.Receiver, 1)
		}
	}
	return int(f.tableMisses.Load() - before)
}

// TestChannelIndexModel drives one router through a seeded random mix of
// everything that gives an entry paths or takes an entry away, and checks
// every InvalidateChannel — on channels tables use and on ones they do
// not — against the scan: same entries dropped, nothing else touched,
// counters in step.
func TestChannelIndexModel(t *testing.T) {
	const nodes = 200
	g, err := topo.BarabasiAlbert(nodes, 3, rand.New(rand.NewSource(21)))
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(1000)
	cfg.TableTTL = 10
	cfg.TableCap = 6
	f := New(cfg)
	rng := rand.New(rand.NewSource(22))
	node := func(n int) topo.NodeID { return topo.NodeID(rng.Intn(n)) }
	sender := func() topo.NodeID { return node(12) }
	receiver := func() topo.NodeID { // half from a small set, so lookups hit
		if rng.Intn(2) == 0 {
			return 12 + node(8)
		}
		return 12 + node(nodes-12)
	}

	var invalidations int64
	var stale []*tableEntry // entries as payments keep them: some removed by now
	expired := 0
	counts := make(map[string]int)
	for step := 0; step < 8000; step++ {
		switch op := rng.Intn(200); {
		case op < 140:
			counts["lookup"]++
			s := sender()
			tbl := f.tableFor(s)
			had, net := len(tbl.entries), f.tableMisses.Load()-f.tableEvictions.Load()
			f.lookupPaths(g, s, receiver(), 1+99*rng.Float64())
			// What is gone and was neither evicted nor made up for by the miss expired.
			expired += had + int(f.tableMisses.Load()-f.tableEvictions.Load()-net) - len(tbl.entries)
		case op < 156: // a dead path: materialises the pool, rotates a slot
			live := f.liveEntries()
			if rng.Intn(4) == 0 { // for a payment that holds an entry its table dropped since
				live = stale
				counts["replace-removed"]++
			} else if len(live) > 0 { // remember forty early picks and the latest
				stale = append(stale[:min(len(stale), 40)], live[rng.Intn(len(live))])
			}
			if len(live) > 0 {
				e := live[rng.Intn(len(live))]
				if len(e.paths) > 0 {
					counts["replace"]++
					slot := rng.Intn(len(e.paths))
					f.replaceDeadPath(g, e.paths[slot][0], e.table, e, slot, e.paths[slot])
				}
			}
		case op < 164: // a burst of mice looking their receivers up
			counts["warm"]++
			pairs := make([]Pair, 1+rng.Intn(6))
			for i := range pairs {
				pairs[i] = Pair{Sender: sender(), Receiver: receiver()}
			}
			warm(f, g, pairs)
		case op < 168: // lowering drops entries that served more; raising drops none
			counts["threshold"]++
			invalidations += int64(f.SetThreshold(40 + 100*rng.Float64()))
		case op < 172:
			counts["sender-threshold"]++
			invalidations += int64(f.SetSenderThreshold(sender(), 20+100*rng.Float64()))
		default:
			u, v := node(nodes), node(nodes)
			if op < 195 { // a real channel; otherwise most likely no channel at all
				c := g.Channel(rng.Intn(g.NumChannels()))
				u, v = c.A, c.B
				if rng.Intn(2) == 0 {
					u, v = v, u
				}
			}
			want := f.scanChannel(u, v)
			before := f.liveEntries()
			dropped := f.InvalidateChannel(u, v)
			invalidations += int64(dropped)
			if len(want) > 0 {
				counts["invalidate-used"]++
			} else {
				counts["invalidate-unused"]++
			}
			if dropped != len(want) {
				t.Fatalf("step %d: InvalidateChannel(%d,%d) dropped %d, the scan finds %d", step, u, v, dropped, len(want))
			}
			gone := make(map[*tableEntry]bool)
			for _, e := range want {
				gone[e] = true
				if !e.dead.Load() || e.table.entries[e.receiver] == e {
					t.Fatalf("step %d: entry for %d crosses %d–%d and survived", step, e.receiver, u, v)
				}
			}
			for _, e := range before {
				if !gone[e] && (e.dead.Load() || e.table.entries[e.receiver] != e) {
					t.Fatalf("step %d: entry for %d does not cross %d–%d and was dropped", step, e.receiver, u, v)
				}
			}
			st := f.Stats()
			if st.TableInvalidations != invalidations {
				t.Fatalf("step %d: TableInvalidations = %d, want %d", step, st.TableInvalidations, invalidations)
			}
			if want := len(before) - dropped; st.TableEntries != want {
				t.Fatalf("step %d: TableEntries = %d, want %d", step, st.TableEntries, want)
			}
		}
		if step%50 == 0 {
			checkIndex(t, f)
		}
	}
	checkIndex(t, f)
	st := f.Stats()
	for _, op := range []string{"lookup", "replace", "replace-removed", "warm", "threshold", "sender-threshold", "invalidate-used", "invalidate-unused"} {
		if counts[op] == 0 {
			t.Errorf("the sequence never ran %s", op)
		}
	}
	if expired == 0 {
		t.Error("the sequence never let an entry's TTL run out")
	}
	if st.TableHits == 0 || st.TableMisses == 0 || st.TableEvictions == 0 || st.PathsReplaced == 0 || st.TableInvalidations == 0 {
		t.Errorf("the sequence left a removal or registration site idle: %+v", st)
	}
}

// TestChannelIndexLeakBound: entries never unregister, so without churn
// nothing but the sweep stands between a capped table and an index that
// grows with every miss. 50,000 misses through eight-entry tables must
// leave the index holding no more than three times the live references
// plus indexSlack (the sweep's own bound — twice what the last sweep kept,
// plus indexSlack — is checked by checkIndex).
func TestChannelIndexLeakBound(t *testing.T) {
	const nodes = 200
	g, err := topo.BarabasiAlbert(nodes, 3, rand.New(rand.NewSource(31)))
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(math.Inf(1))
	cfg.TableTTL = 0
	cfg.TableCap = 8
	f := New(cfg)
	rng := rand.New(rand.NewSource(32))
	registered := 0
	for f.tableMisses.Load() < 50000 {
		s, r := topo.NodeID(rng.Intn(20)), topo.NodeID(20+rng.Intn(nodes-20))
		misses := f.tableMisses.Load()
		if _, e := f.lookupPaths(g, s, r, 1); f.tableMisses.Load() > misses {
			registered += len(channelsOf(nil, e.paths))
		}
	}
	live := checkIndex(t, f)
	if st := f.Stats(); st.TableEntries != 20*8 || st.TableInvalidations != 0 {
		t.Fatalf("want 160 entries and no invalidation, got %+v", st)
	}
	if size := f.index.size; size > 3*live+indexSlack {
		t.Errorf("index holds %d references for %d live ones (%d registered over the run)", size, live, registered)
	}
	t.Logf("%d references registered, %d held, %d live", registered, f.index.size, live)
}

// TestChannelIndexConcurrent is TestInvalidateConcurrentWithRouting with
// everything else that touches the index running too — table warm-up
// lookups, SetThreshold and SetSenderThreshold beside payments and
// invalidations — for the race detector and the lock order, and then, once
// all is quiet, the invariants and one scan-checked invalidation of every
// channel. Not skipped under -short: CI's race step is where it counts.
func TestChannelIndexConcurrent(t *testing.T) {
	const nodes = 40
	net := concurrencyFixture(t, nodes)
	g := net.Graph()
	cfg := DefaultConfig(100)
	cfg.TableCap = 10
	cfg.TableTTL = 50
	f := New(cfg)
	var wg sync.WaitGroup
	run := func(seed int64, n int, op func(rng *rand.Rand)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < n; i++ {
				op(rng)
			}
		}()
	}
	for w := int64(0); w < 3; w++ {
		run(w, 300, func(rng *rand.Rand) {
			s, r := topo.NodeID(rng.Intn(6)), topo.NodeID(6+rng.Intn(nodes-6))
			tx, err := net.Begin(s, r, 1+60*rng.Float64())
			if err != nil {
				t.Error(err)
				return
			}
			f.Route(tx) //nolint:errcheck // failures fine under churn
			if !tx.Finished() {
				tx.Abort()
			}
		})
	}
	run(10, 400, func(rng *rand.Rand) {
		c := g.Channel(rng.Intn(g.NumChannels()))
		f.InvalidateChannel(c.A, c.B)
	})
	run(11, 60, func(rng *rand.Rand) {
		pairs := make([]Pair, 8)
		for i := range pairs {
			pairs[i] = Pair{Sender: topo.NodeID(rng.Intn(6)), Receiver: topo.NodeID(6 + rng.Intn(nodes-6))}
		}
		warm(f, g, pairs)
	})
	run(12, 200, func(rng *rand.Rand) { f.SetThreshold(30 + 70*rng.Float64()) })
	run(13, 200, func(rng *rand.Rand) { f.SetSenderThreshold(topo.NodeID(rng.Intn(6)), 30+70*rng.Float64()) })
	wg.Wait()

	checkIndex(t, f)
	for _, c := range g.Channels() {
		want := f.scanChannel(c.A, c.B)
		if dropped := f.InvalidateChannel(c.A, c.B); dropped != len(want) {
			t.Fatalf("channel %v: dropped %d, the scan finds %d", c, dropped, len(want))
		}
	}
	if st := f.Stats(); st.TableEntries != 0 {
		t.Errorf("%d entries cross no channel", st.TableEntries)
	}
	checkIndex(t, f)
}

// BenchmarkInvalidateChannel prices one channel event against tables of
// ripple-mixed's shape — 2,000 senders, eight receivers each, top-4 Yen
// paths — for the scan (oracle) and the index side by side, on channels
// that tables use and on one that none does. entries-visited/op is the
// entries each examines under their table's lock: all of them for the
// scan, for the index the ones it drops (dropped/op). stale-refs/op is
// what else the index walks: references to entries that an earlier
// iteration dropped through another channel and no sweep has met yet,
// left out on one atomic load each. Dropped entries are recomputed outside
// the timer.
func BenchmarkInvalidateChannel(b *testing.B) {
	const senders, receivers = 2000, 8
	g, err := topo.RippleLike(senders, rand.New(rand.NewSource(1)))
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	pairs := make([]Pair, 0, senders*receivers)
	for s := 0; s < senders; s++ {
		for i := 0; i < receivers; i++ {
			pairs = append(pairs, Pair{Sender: topo.NodeID(s), Receiver: topo.NodeID(rng.Intn(senders))})
		}
	}
	refsUnder := func(f *Flash, c topo.Edge) (live, stale int) {
		x := f.index
		for r := x.heads[c]; r != 0; r = x.ref(r).next {
			if x.entries[x.ref(r).entry].dead.Load() {
				stale++
			} else {
				live++
			}
		}
		return live, stale
	}
	for _, v := range []struct {
		name       string
		invalidate func(f *Flash, c topo.Edge) (dropped, visited int)
		indexed    bool // visited is counted from the index, outside the timer
	}{
		{"oracle", func(f *Flash, c topo.Edge) (int, int) { return f.scanInvalidateChannel(c.A, c.B) }, false},
		{"index", func(f *Flash, c topo.Edge) (int, int) { return f.InvalidateChannel(c.A, c.B), 0 }, true},
	} {
		f := New(DefaultConfig(math.Inf(1)))
		warm(f, g, pairs)
		users := make(map[topo.Edge][]Pair) // whom to recompute after an event
		for _, e := range f.liveEntries() {
			for _, c := range channelsOf(nil, e.paths) {
				users[c] = append(users[c], Pair{Sender: e.paths[0][0], Receiver: e.receiver})
			}
		}
		var used, unused []topo.Edge
		for _, c := range g.Channels() {
			switch {
			case len(users[c]) == 0:
				unused = append(unused[:0], c)
			case len(used) < 256:
				used = append(used, c)
			}
		}
		if len(unused) == 0 {
			b.Fatal("every channel is on some cached path")
		}
		for _, cell := range []struct {
			name  string
			chans []topo.Edge
		}{{"used", used}, {"unused", unused}} {
			b.Run(cell.name+"/"+v.name, func(b *testing.B) {
				dropped, visited, stale := 0, 0, 0
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					c := cell.chans[i%len(cell.chans)]
					if v.indexed {
						b.StopTimer()
						live, dead := refsUnder(f, c)
						visited += live
						stale += dead
						b.StartTimer()
					}
					d, n := v.invalidate(f, c)
					b.StopTimer()
					dropped += d
					visited += n
					if warm(f, g, users[c]) != d {
						b.Fatalf("channel %v: dropped %d entries, recomputed another number", c, d)
					}
					b.StartTimer()
				}
				b.ReportMetric(float64(dropped)/float64(b.N), "dropped/op")
				b.ReportMetric(float64(visited)/float64(b.N), "entries-visited/op")
				b.ReportMetric(float64(stale)/float64(b.N), "stale-refs/op")
			})
		}
	}
}
