package pcn

import (
	"testing"

	"repro/internal/topo"
)

// TestProbeAllocs pins Tx.Probe's steady-state allocation count at
// exactly one — the returned HopInfo slice. The hop-resolution and
// lock-order buffers live in the Tx scratch, so a regression here means
// a probe started allocating per-hop state again (the sequential
// elephant loop probes thousands of times per simulated second).
func TestProbeAllocs(t *testing.T) {
	n := lineNet(t)
	tx, err := n.Begin(0, 3, 10)
	if err != nil {
		t.Fatal(err)
	}
	path := []topo.NodeID{0, 1, 2, 3}
	if _, err := tx.Probe(path); err != nil { // warm the Tx scratch
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(200, func() {
		if _, err := tx.Probe(path); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 1 {
		t.Fatalf("Tx.Probe allocates %v/op in steady state, want exactly 1 (the HopInfo slice)", avg)
	}
}

// TestPaymentAllocs pins what one whole payment allocates on a fresh
// session, the engine's per-payment cost: the Tx, the probe's HopInfo
// slice, one hop buffer per operation, the hold's path copy and record,
// and one lock-order buffer sized to the hop count — not a buffer
// regrown through append on every payment.
func TestPaymentAllocs(t *testing.T) {
	n := lineNet(t)
	path := []topo.NodeID{0, 1, 2, 3}
	for _, tc := range []struct {
		name  string
		probe bool
		want  float64
	}{
		// Begin 1, Hold 4 (hops, lock order, path copy, hold record).
		{"hold-commit", false, 5},
		// Begin 1, Probe 3 (hops, lock order, HopInfo), Hold 3 (its lock
		// order reuses the probe's buffer).
		{"probe-hold-commit", true, 7},
	} {
		avg := testing.AllocsPerRun(100, func() {
			tx, err := n.Begin(0, 3, 0.1)
			if err != nil {
				t.Fatal(err)
			}
			if tc.probe {
				if _, err := tx.Probe(path); err != nil {
					t.Fatal(err)
				}
			}
			if err := tx.Hold(path, 0.1); err != nil {
				t.Fatal(err)
			}
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
		})
		if avg != tc.want {
			t.Errorf("%s: %v allocations per payment, want %v", tc.name, avg, tc.want)
		}
	}
}
