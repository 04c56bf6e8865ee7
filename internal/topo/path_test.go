package topo

import (
	"slices"
	"testing"
)

func TestPathLayout(t *testing.T) {
	p := MakePath([]NodeID{4, 2, 7}, []int32{9, 3})
	if got := p.Nodes(); !slices.Equal(got, []NodeID{4, 2, 7}) || cap(got) != 3 {
		t.Fatalf("Nodes = %v (cap %d), want [4 2 7] capped", got, cap(got))
	}
	if p.Hops() != 2 || p.Len() != 5 || p.IsZero() {
		t.Fatalf("Hops %d, Len %d, IsZero %v", p.Hops(), p.Len(), p.IsZero())
	}
	if p.Chan(0) != 9 || p.Chan(1) != 3 {
		t.Fatalf("channels %d %d, want 9 3", p.Chan(0), p.Chan(1))
	}
	if u, v, ch := p.Hop(1); u != 2 || v != 7 || ch != 3 {
		t.Fatalf("Hop(1) = %d→%d over %d, want 2→7 over 3", u, v, ch)
	}
	single := MakePath([]NodeID{5}, nil)
	if single.Hops() != 0 || single.IsZero() || !slices.Equal(single.Nodes(), []NodeID{5}) {
		t.Fatalf("single-node path %v", single)
	}
	var zero Path
	if !zero.IsZero() || zero.Hops() != 0 || zero.Nodes() != nil || !MakePath(nil, nil).IsZero() || !PathOf(nil).IsZero() {
		t.Fatal("the zero Path is not empty")
	}
}

func TestPathAppendToCopies(t *testing.T) {
	p := MakePath([]NodeID{1, 2, 3}, []int32{0, 1})
	arena := make([]NodeID, 0, 64)
	c, arena := p.AppendTo(arena)
	d, arena := p.AppendTo(arena)
	if !c.Equal(p) || !d.Equal(p) || len(arena) != 10 {
		t.Fatalf("copies %v %v of %v, arena %d long", c, d, p, len(arena))
	}
	if cap(c.Nodes()) != 3 {
		t.Fatal("a copy's nodes reach past it")
	}
	arena[0] = 9 // the copy is the arena's, not p's
	if c.Equal(p) || p.Nodes()[0] != 1 {
		t.Fatal("AppendTo did not copy")
	}
	if z, same := (Path{}).AppendTo(arena); !z.IsZero() || len(same) != len(arena) {
		t.Fatal("the zero Path copied something")
	}
	if MakePath([]NodeID{1, 2}, []int32{7}).Equal(MakePath([]NodeID{1, 2}, []int32{8})) {
		t.Fatal("paths over other channels are equal")
	}
}

func TestPathRejectsMalformedLayouts(t *testing.T) {
	for name, build := range map[string]func(){
		"even layout":       func() { PathOf([]NodeID{1, 2}) },
		"empty layout":      func() { PathOf([]NodeID{}) },
		"too few channels":  func() { MakePath([]NodeID{1, 2, 3}, []int32{0}) },
		"too many channels": func() { MakePath([]NodeID{1, 2}, []int32{0, 1}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			build()
		}()
	}
}

// TestPathArenaKeeps: lists appended into Room and kept stay intact as
// the arena fills and moves to new chunks — whether the appends fit, or
// outgrew the element chunk, the list chunk or both — every kept list and
// path is capped at its length, an empty list is nil, and KeepPath copies
// single paths beside them.
func TestPathArenaKeeps(t *testing.T) {
	var a PathArena
	mk := func(i, n int) Path { // a path of n nodes, numbered from i
		nodes, chans := make([]NodeID, n), make([]int32, n-1)
		for j := range nodes {
			nodes[j] = NodeID(i + j)
		}
		return MakePath(nodes, chans)
	}
	type kept struct {
		list []Path
		want []Path
	}
	var all []kept
	var single []Path
	for i := 0; i < 400; i++ {
		var want []Path
		for j := 0; j < 1+i%9; j++ {
			want = append(want, mk(i+j, 2+(i+j)%(1+i%40)))
		}
		paths, elems := a.Room()
		if len(paths) != 0 || len(elems) != 0 {
			t.Fatalf("Room hands out %d paths and %d elements, want empty slices", len(paths), len(elems))
		}
		for _, p := range want {
			var c Path
			c, elems = p.AppendTo(elems)
			paths = append(paths, c)
		}
		list := a.Keep(paths, elems)
		if cap(list) != len(list) {
			t.Fatalf("list %d: capacity %d beyond its %d paths", i, cap(list), len(list))
		}
		all = append(all, kept{list, want})
		if i%7 == 0 {
			p := mk(1000+i, 3)
			if c := a.KeepPath(p); !c.Equal(p) || cap(c.Nodes()) != 3 {
				t.Fatalf("KeepPath(%v) = %v", p, c)
			}
			single = append(single, a.KeepPath(p))
		}
	}
	for i, k := range all {
		if len(k.list) != len(k.want) {
			t.Fatalf("list %d holds %d paths, want %d", i, len(k.list), len(k.want))
		}
		for j, p := range k.list {
			if !p.Equal(k.want[j]) || cap(p.elems) != len(p.elems) {
				t.Fatalf("list %d path %d: %v (capacity %d), want %v", i, j, p, cap(p.elems), k.want[j])
			}
		}
	}
	for i, p := range single {
		if !p.Equal(mk(1000+7*i, 3)) {
			t.Fatalf("kept single path %d reads %v", i, p)
		}
	}
	if cap(a.elems) != maxElemChunk || cap(a.lists) > maxListChunk {
		t.Fatalf("chunks of %d elements and %d paths after filling, want %d and at most %d", cap(a.elems), cap(a.lists), maxElemChunk, maxListChunk)
	}
	if paths, elems := a.Room(); a.Keep(paths, elems) != nil {
		t.Fatal("an empty list kept as non-nil")
	}
	if !a.KeepPath(Path{}).IsZero() {
		t.Fatal("the zero Path kept as a path")
	}
	huge := mk(0, maxElemChunk)
	if c := a.KeepPath(huge); !c.Equal(huge) {
		t.Fatal("a path longer than a chunk was not kept whole")
	}
}
