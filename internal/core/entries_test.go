package core

import (
	"math/rand"
	"testing"

	"repro/internal/topo"
)

// TestEntryTableMatchesMap runs random insert, get and remove sequences
// through an entryTable and a Go map, its oracle, and checks after every
// operation that both agree on every pair drawn from and on the count.
// Three pairs in four come from 48 whose home lies in the last four
// slots at the table's first size (and the last eight once it doubles),
// which makes probe chains that wrap around the end and deletes inside
// them; the other 16 spread over the table. Up to 64 pairs are held at
// once, so the table doubles; sequences run insert-heavy, balanced and
// remove-heavy.
func TestEntryTableMatchesMap(t *testing.T) {
	probe := entryTable{shift: 64 - 6} // minEntrySlots = 1<<6 slots
	var pool []Pair
	for r := topo.NodeID(0); len(pool) < 48; r++ {
		if p := (Pair{Sender: 3, Receiver: r}); probe.home(p) >= minEntrySlots-4 {
			pool = append(pool, p)
		}
	}
	for i := range topo.NodeID(16) {
		pool = append(pool, Pair{Sender: i * 7919, Receiver: i})
	}
	entries := make([]tableEntry, len(pool))
	for i, p := range pool {
		entries[i].pair = p
	}
	rng := rand.New(rand.NewSource(1))
	for seq := 0; seq < 60; seq++ {
		var table entryTable
		oracle := map[Pair]*tableEntry{}
		w := [3]int{1 + seq%3, 1, 1 + (seq/3)%3} // insert, get, remove
		for step := 0; step < 3000; step++ {
			k := rng.Intn(48)
			if rng.Intn(4) == 0 {
				k = rng.Intn(len(pool))
			}
			p := pool[k]
			switch r := rng.Intn(w[0] + w[1] + w[2]); {
			case r < w[0]:
				if oracle[p] == nil {
					table.insert(&entries[k])
					oracle[p] = &entries[k]
				}
			case r < w[0]+w[1]:
				if got, want := table.get(p), oracle[p]; got != want {
					t.Fatalf("seq %d step %d: get(%v) = %p, want %p", seq, step, p, got, want)
				}
			default:
				table.remove(p)
				delete(oracle, p)
			}
			if table.n != len(oracle) {
				t.Fatalf("seq %d step %d: table holds %d, oracle %d", seq, step, table.n, len(oracle))
			}
			for _, q := range pool {
				if got, want := table.get(q), oracle[q]; got != want {
					t.Fatalf("seq %d step %d: after an operation on %v, get(%v) = %p, want %p", seq, step, p, q, got, want)
				}
			}
		}
	}
}
