package core

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/pcn"
	"repro/internal/topo"
)

// raceEnabled is set under the race detector (race_test.go), whose
// instrumentation slows code several-fold and defeats some of the
// compiler's allocation elisions.
var raceEnabled bool

// TestElephantPlanAllocs pins what an elephant's plan and split allocate
// once the probed-state free list is warm: nothing of their own. Algorithm 1 keeps its
// paths in the probed state's arena, and program (1) is built and solved
// in the state's buffers. The network is TestElephantOffsetHoldRegression's:
// its two paths cross channel a–b in opposite directions, so the program
// has shared rows and its split an offset. The session's Probe results
// go to its probe-result arena, whose growth the session amortises, so
// they cost nothing per payment either. The same holds for the pipelined
// discovery at probe width 2.
func TestElephantPlanAllocs(t *testing.T) {
	if raceEnabled {
		// Instrumented, append(s[:0], make([]T, n)...) allocates where the
		// compiler otherwise extends s in place: program (1)'s buffers
		// here and in package lp.
		t.Skip("the race detector's instrumentation allocates the fee program's buffers")
	}
	const s, a, b, tt, c, d = 0, 1, 2, 3, 4, 5
	hops := [][2]topo.NodeID{{s, a}, {a, b}, {b, tt}, {s, c}, {c, b}, {a, d}, {d, tt}}
	g := topo.New(6)
	for _, h := range hops {
		g.MustAddChannel(h[0], h[1])
	}
	net := pcn.New(g)
	for _, h := range hops {
		if err := net.SetBalance(h[0], h[1], 1, 0); err != nil {
			t.Fatal(err)
		}
	}
	cfg := DefaultConfig(0)
	cfg.K = 8
	f := New(cfg)
	tx, err := net.Begin(s, tt, 2)
	if err != nil {
		t.Fatal(err)
	}
	var (
		paths int
		split [2]float64
	)
	run := func() {
		plan := f.findElephantPaths(tx, cfg.K)
		if plan == nil {
			t.Fatal("no plan for the max-flow demand")
		}
		paths = len(plan.paths)
		copy(split[:], f.optimizeAllocation(plan, tx.Demand()))
		plan.state.release()
	}
	run()
	if paths != 2 || split != [2]float64{1, 1} {
		t.Fatalf("%d paths split %v, want 2 paths carrying [1 1]", paths, split)
	}
	if avg := testing.AllocsPerRun(100, run); avg != 0 {
		t.Fatalf("plan and split allocate %v per payment, want 0", avg)
	}
	if n := f.Stats().FeeProgramFallbacks; n != 0 {
		t.Fatalf("%d fee-program fallbacks", n)
	}
	// At probe width 2 each round's candidates and probe results go to
	// the state's buffers too.
	pipelined := func() {
		plan := f.findElephantPathsPipelined(tx, cfg.K, 2)
		if plan == nil {
			t.Fatal("no pipelined plan for the max-flow demand")
		}
		plan.state.release()
	}
	pipelined()
	if avg := testing.AllocsPerRun(100, pipelined); avg != 0 {
		t.Fatalf("a pipelined plan allocates %v per payment, want 0", avg)
	}
}

// TestMiceTableAllocs pins what the mice routing table allocates on a
// warm router: a hit nothing, a miss nothing — its entry comes from the
// router's slab — and an entry's first dead-path replacement — which
// builds its replacement list — nothing while the path arena has room.
// Yen runs on a Scratch from graph's free list and appends into the
// arena, whose chunks, like the slab's, the map, the per-sender slice and
// the channel index, grow by doubling or by the chunk:
// testing.AllocsPerRun reports the integer part of the mean, and those
// growths stay well below one per run here.
func TestMiceTableAllocs(t *testing.T) {
	const runs = 100
	g, err := topo.BarabasiAlbert(400, 3, rand.New(rand.NewSource(41)))
	if err != nil {
		t.Fatal(err)
	}
	var pairs []Pair
	for s := topo.NodeID(0); len(pairs) < 4*runs; s++ {
		for r := topo.NodeID(200); r < 220; r++ {
			pairs = append(pairs, Pair{Sender: s, Receiver: r})
		}
	}
	f := New(DefaultConfig(math.Inf(1)))
	warmed := pairs[:2*runs]
	if n := warm(f, g, warmed); n != len(warmed) {
		t.Fatalf("%d of %d first lookups missed", n, len(warmed))
	}

	next := 0
	lookup := func(ps []Pair) func() {
		return func() {
			p := ps[next%len(ps)]
			next++
			f.lookupPaths(g, p.Sender, p.Receiver, 1)
		}
	}
	misses := f.stats.TableMisses
	if avg := testing.AllocsPerRun(runs, lookup(warmed)); avg != 0 {
		t.Errorf("a table hit allocates %v, want 0", avg)
	}
	if f.stats.TableMisses != misses {
		t.Fatal("a warmed pair missed")
	}
	next = 0
	if avg := testing.AllocsPerRun(runs, lookup(pairs[2*runs:])); avg != 0 {
		t.Errorf("a table miss allocates %v, want 0", avg)
	}
	if n := f.stats.TableMisses - misses; n != runs+1 {
		t.Fatalf("%d of %d new pairs missed", n, runs+1)
	}

	entries := f.liveEntries()
	built := 0
	replaced := f.stats.PathsReplaced
	if avg := testing.AllocsPerRun(runs, func() {
		e := entries[built]
		built++
		f.replaceDeadPath(g, e, 0)
	}); avg != 0 {
		t.Errorf("building a replacement list allocates %v, want 0", avg)
	}
	for _, e := range entries[:built] {
		if len(e.all) <= len(e.paths) {
			t.Fatalf("entry %v: replacement list of %d paths beside %d live ones", e.pair, len(e.all), len(e.paths))
		}
	}
	if n := f.stats.PathsReplaced - replaced; n != int64(built) {
		t.Fatalf("%d replacements for %d dead paths", n, built)
	}
}
