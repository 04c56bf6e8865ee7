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
