package core

import (
	"math"
	"testing"

	"repro/internal/topo"
)

// diamondNet is a 4-node diamond: 0-1-3 and 0-2-3.
func diamondNet(t *testing.T) (*Flash, *topo.Graph) {
	t.Helper()
	net := build(t, 4, [][4]float64{
		{0, 1, 1000, 1000}, {1, 3, 1000, 1000},
		{0, 2, 1000, 1000}, {2, 3, 1000, 1000},
	})
	f := New(DefaultConfig(math.Inf(1))) // everything mice
	if _, err := pay(t, f, net, 0, 3, 10); err != nil {
		t.Fatal(err)
	}
	return f, net.Graph()
}

func TestInvalidateChannelDropsAffectedEntries(t *testing.T) {
	f, _ := diamondNet(t)
	if st := f.Stats(); st.TableEntries != 1 {
		t.Fatalf("table entries = %d, want 1", st.TableEntries)
	}
	// 1-3 is on one of the cached 0→3 paths: the entry must drop.
	if dropped := f.InvalidateChannel(1, 3); dropped != 1 {
		t.Errorf("dropped %d entries, want 1", dropped)
	}
	st := f.Stats()
	if st.TableEntries != 0 {
		t.Errorf("table entries after invalidation = %d, want 0", st.TableEntries)
	}
	if st.TableInvalidations != 1 {
		t.Errorf("invalidation counter = %d, want 1", st.TableInvalidations)
	}
}

func TestInvalidateChannelIgnoresUnrelated(t *testing.T) {
	net := build(t, 5, [][4]float64{
		{0, 1, 1000, 1000}, {1, 2, 1000, 1000}, {3, 4, 1000, 1000},
	})
	f := New(DefaultConfig(math.Inf(1)))
	if _, err := pay(t, f, net, 0, 2, 10); err != nil {
		t.Fatal(err)
	}
	// 3-4 is on no cached path of the 0→2 entry.
	if dropped := f.InvalidateChannel(3, 4); dropped != 0 {
		t.Errorf("dropped %d entries, want 0", dropped)
	}
	if st := f.Stats(); st.TableEntries != 1 {
		t.Errorf("unrelated invalidation evicted entries: %+v", st)
	}
}

func TestInvalidatedEntryRecomputesOnNextUse(t *testing.T) {
	f, _ := diamondNet(t)
	net := build(t, 4, [][4]float64{
		{0, 1, 1000, 1000}, {1, 3, 1000, 1000},
		{0, 2, 1000, 1000}, {2, 3, 1000, 1000},
	})
	f.InvalidateChannel(1, 3)
	missesBefore := f.Stats().TableMisses
	if _, err := pay(t, f, net, 0, 3, 10); err != nil {
		t.Fatal(err)
	}
	if got := f.Stats().TableMisses; got != missesBefore+1 {
		t.Errorf("misses = %d, want %d (invalidated entry recomputed)", got, missesBefore+1)
	}
}

// TestInvalidateConcurrentWithRouting interleaves churn-driven
// invalidations of both routes' channels with live payments: every
// Route finishes its session, and the table and channel index stay
// consistent.
func TestInvalidateConcurrentWithRouting(t *testing.T) {
	net := build(t, 4, [][4]float64{
		{0, 1, 1e6, 1e6}, {1, 3, 1e6, 1e6},
		{0, 2, 1e6, 1e6}, {2, 3, 1e6, 1e6},
	})
	f := New(DefaultConfig(math.Inf(1)))
	for i := 0; i < 200; i++ {
		for range 3 {
			tx, err := net.Begin(0, 3, 1)
			if err != nil {
				t.Fatal(err)
			}
			f.Route(tx) //nolint:errcheck // failures fine under churn
			if !tx.Finished() {
				t.Fatal("Route left session unfinished")
			}
		}
		f.InvalidateChannel(1, 3)
		f.InvalidateChannel(0, 2)
	}
	checkIndex(t, f)
	if st := f.Stats(); st.Mice != 600 || st.TableInvalidations == 0 {
		t.Errorf("stats %+v, want 600 mice and some invalidations", st)
	}
}
