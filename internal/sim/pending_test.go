package sim

import (
	"math"
	"math/rand"
	"testing"
)

// pendingPool is the IDs the pending-table tests draw from: 48 whose
// home lies in the last four slots at the table's first size (and so
// in the last eight once it doubles), which makes probe chains that
// wrap around the end and deletes inside them, and 16 others, the
// extremes and 0 among them. 64 IDs can all be pending at once, so the
// table doubles.
func pendingPool() []int64 {
	probe := pendingTable{shift: 64 - 6} // minPendingSlots = 1<<6 slots
	var pool []int64
	for id := int64(-1 << 40); len(pool) < 48; id++ {
		if probe.home(id) >= minPendingSlots-4 {
			pool = append(pool, id)
		}
	}
	pool = append(pool, 0, 1, 2, 3, 64, 128, -1, -64,
		math.MaxInt64, math.MinInt64, math.MaxInt64-1, math.MinInt64+1, 1<<32, -1<<32, 7, 1<<62)
	return pool
}

// runPendingOps applies ops to a pendingTable and to a Go map, its
// oracle. Each byte is one operation: its low two bits pick insert
// (0, 1), get (2) or remove (3), its other six an ID of pendingPool.
// After every operation both must agree on every pooled ID and on the
// count.
func runPendingOps(t *testing.T, ops []byte) {
	t.Helper()
	pool := pendingPool()
	recs := make([]dynPayment, len(pool))
	var table pendingTable
	oracle := map[int64]*dynPayment{}
	for step, b := range ops {
		k := int(b >> 2)
		id := pool[k]
		switch b & 3 {
		case 0, 1:
			_, present := oracle[id]
			if got := table.insert(id, &recs[k]); got == present {
				t.Fatalf("step %d: insert(%d) = %v with the ID pending = %v", step, id, got, present)
			}
			if !present {
				oracle[id] = &recs[k]
			}
		case 2:
			if got, want := table.get(id), oracle[id]; got != want {
				t.Fatalf("step %d: get(%d) = %p, want %p", step, id, got, want)
			}
		case 3:
			table.remove(id)
			delete(oracle, id)
		}
		if table.n != len(oracle) {
			t.Fatalf("step %d: table holds %d, oracle %d", step, table.n, len(oracle))
		}
		for _, id := range pool {
			if got, want := table.get(id), oracle[id]; got != want {
				t.Fatalf("step %d: after op %d on %d, get(%d) = %p, want %p", step, b&3, pool[k], id, got, want)
			}
		}
	}
}

// TestPendingTableMatchesMap runs random operation sequences through
// runPendingOps: insert-heavy ones that grow the table, balanced ones
// that keep wrap-around chains long while deleting inside them, and
// remove-heavy ones that empty it.
func TestPendingTableMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for seq := 0; seq < 60; seq++ {
		// Weights of insert, get and remove for this sequence.
		w := [3]int{1 + seq%3, 1, 1 + (seq/3)%3}
		ops := make([]byte, 3000)
		for i := range ops {
			var op byte
			switch r := rng.Intn(w[0] + w[1] + w[2]); {
			case r < w[0]:
				op = 0
			case r < w[0]+w[1]:
				op = 2
			default:
				op = 3
			}
			// Three draws in four from the crowded IDs.
			k := rng.Intn(48)
			if rng.Intn(4) == 0 {
				k = rng.Intn(64)
			}
			ops[i] = byte(k)<<2 | op
		}
		runPendingOps(t, ops)
	}
}

// FuzzPendingTable checks the pending table against a Go map over
// fuzzed operation sequences (see runPendingOps).
func FuzzPendingTable(f *testing.F) {
	f.Add([]byte{0, 4, 8, 2, 6, 3, 7, 2, 6})
	ramp := make([]byte, 0, 192)
	for k := range 64 {
		ramp = append(ramp, byte(k)<<2) // all 64 pending: the table doubles
	}
	for k := range 64 {
		ramp = append(ramp, byte(k)<<2|3, byte(k+1)%64<<2|2)
	}
	f.Add(ramp)
	f.Fuzz(func(t *testing.T, ops []byte) {
		runPendingOps(t, ops)
	})
}
