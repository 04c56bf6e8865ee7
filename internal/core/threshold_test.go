package core

import (
	"testing"

	"repro/internal/pcn"
	"repro/internal/topo"
)

// thresholdNet builds a small line network 0–1–2–3 with ample balance,
// so mice and elephant routing both succeed trivially.
func thresholdNet(t *testing.T) *pcn.Network {
	t.Helper()
	g := topo.New(4)
	g.MustAddChannel(0, 1)
	g.MustAddChannel(1, 2)
	g.MustAddChannel(2, 3)
	net := pcn.New(g)
	for _, e := range g.Channels() {
		if err := net.SetBalance(e.A, e.B, 1e6, 1e6); err != nil {
			t.Fatal(err)
		}
	}
	return net
}

// routeOne pushes one payment through f and returns whether it
// delivered.
func routeOne(t *testing.T, net *pcn.Network, f *Flash, from, to topo.NodeID, amount float64) bool {
	t.Helper()
	tx, err := net.Begin(from, to, amount)
	if err != nil {
		t.Fatal(err)
	}
	return f.Route(tx) == nil
}

// TestSetThresholdSwapsClassification: payments classify against the
// live threshold, and the swap is visible through Config, Threshold
// and Stats.
func TestSetThresholdSwapsClassification(t *testing.T) {
	net := thresholdNet(t)
	f := New(DefaultConfig(100))
	if f.Threshold() != 100 {
		t.Fatalf("initial threshold %v", f.Threshold())
	}

	routeOne(t, net, f, 0, 3, 50) // mouse under threshold 100
	st := f.Stats()
	if st.Mice != 1 || st.Elephants != 0 {
		t.Fatalf("pre-swap classification: %+v", st)
	}

	if dropped := f.SetThreshold(100); dropped != 0 {
		t.Errorf("no-op swap dropped %d entries", dropped)
	}
	if got := f.Stats().ThresholdUpdates; got != 0 {
		t.Errorf("no-op swap counted as update: %d", got)
	}

	f.SetThreshold(20)
	routeOne(t, net, f, 0, 3, 50) // the same amount is now an elephant
	st = f.Stats()
	if st.Mice != 1 || st.Elephants != 1 {
		t.Errorf("post-swap classification: %+v", st)
	}
	if st.ThresholdUpdates != 1 {
		t.Errorf("ThresholdUpdates = %d, want 1", st.ThresholdUpdates)
	}
	if got := f.Threshold(); got != 20 {
		t.Errorf("Threshold() = %v, want the live value 20", got)
	}
}

// TestSetThresholdInvalidatesMisclassifiedEntries: lowering the
// threshold drops cached entries whose observed traffic is no longer
// mice traffic, and only those; raising it drops nothing.
func TestSetThresholdInvalidatesMisclassifiedEntries(t *testing.T) {
	net := thresholdNet(t)
	f := New(DefaultConfig(100))

	routeOne(t, net, f, 0, 3, 80) // caches entry 0→3 with maxAmount 80
	routeOne(t, net, f, 0, 2, 10) // caches entry 0→2 with maxAmount 10
	if entries := f.Stats().TableEntries; entries != 2 {
		t.Fatalf("cached %d entries, want 2", entries)
	}

	// Raising the threshold: every cached entry still serves mice.
	if dropped := f.SetThreshold(500); dropped != 0 {
		t.Errorf("raise dropped %d entries", dropped)
	}

	// Dropping to 50: the 0→3 entry (maxAmount 80) now fronts elephant
	// traffic and must go; 0→2 (maxAmount 10) stays.
	invBefore := f.Stats().TableInvalidations
	if dropped := f.SetThreshold(50); dropped != 1 {
		t.Errorf("lower dropped %d entries, want 1", dropped)
	}
	st := f.Stats()
	if st.TableEntries != 1 {
		t.Errorf("%d entries cached after invalidation, want 1", st.TableEntries)
	}
	if st.TableInvalidations != invBefore+1 {
		t.Errorf("TableInvalidations %d -> %d, want +1", invBefore, st.TableInvalidations)
	}
	if st.ThresholdUpdates != 2 {
		t.Errorf("ThresholdUpdates = %d, want 2", st.ThresholdUpdates)
	}
}

// TestSetThresholdConcurrentWithRouting interleaves threshold swaps with
// payments from 0 to 3 whose amounts straddle every threshold it sets:
// each swap's invalidation sweep runs between payments that classify
// against the value before and after it, and every payment routes.
func TestSetThresholdConcurrentWithRouting(t *testing.T) {
	net := thresholdNet(t)
	f := New(DefaultConfig(100))
	for i := 0; i < 200; i++ {
		for w := 0; w < 4; w++ {
			routeOne(t, net, f, 0, 3, float64(10+(i+w)%150))
		}
		f.SetThreshold(float64(20 + i%120))
	}
	st := f.Stats()
	if st.Mice+st.Elephants != 800 {
		t.Errorf("routed %d payments, want 800", st.Mice+st.Elephants)
	}
	if st.ThresholdUpdates == 0 || st.TableInvalidations == 0 {
		t.Errorf("stats %+v, want threshold updates and invalidations", st)
	}
}
