package core

import "math/bits"

// entryTable maps a sender–receiver pair to its routing-table entry. It
// is an open-addressing table of entry pointers with linear probing and
// backward-shift deletion — the design of sim's pending-payment table —
// keyed by the pair each entry holds. It doubles from minEntrySlots when
// half full and never shrinks. A Go map would serve too, but its
// allocations depend on its random hash seed once entries are deleted
// (tombstones decide when it grows), and a replay's allocation count is
// meant to repeat exactly. A slot is empty when nil.
type entryTable struct {
	slots []*tableEntry
	shift uint // 64 - log2(len(slots))
	n     int
}

// minEntrySlots is the table's first size, a power of two.
const minEntrySlots = 64

// home is p's first probe: Fibonacci hashing of the pair as one word, so
// one sender's receivers, and pairs that share their low bits, spread
// over the table.
func (t *entryTable) home(p Pair) int {
	key := uint64(uint32(p.Sender))<<32 | uint64(uint32(p.Receiver))
	return int((key * 0x9E3779B97F4A7C15) >> t.shift)
}

// slot returns the index of p's slot, or of the empty slot that ends p's
// probe chain when p has no entry. The table must have slots.
func (t *entryTable) slot(p Pair) int {
	mask := len(t.slots) - 1
	i := t.home(p)
	for t.slots[i] != nil && t.slots[i].pair != p {
		i = (i + 1) & mask
	}
	return i
}

// get returns p's entry, or nil.
func (t *entryTable) get(p Pair) *tableEntry {
	if t.n == 0 {
		return nil
	}
	return t.slots[t.slot(p)]
}

// insert files e under its pair, which must have no entry.
func (t *entryTable) insert(e *tableEntry) {
	if 2*(t.n+1) > len(t.slots) {
		t.grow()
	}
	t.slots[t.slot(e.pair)] = e
	t.n++
}

// remove drops the entry of p, if any. Each later entry of the probe
// chain whose home does not lie between the hole and itself moves back
// into the hole, so every entry stays reachable from its home without a
// tombstone.
func (t *entryTable) remove(p Pair) {
	if t.n == 0 {
		return
	}
	i := t.slot(p)
	if t.slots[i] == nil {
		return
	}
	mask := len(t.slots) - 1
	for j := (i + 1) & mask; t.slots[j] != nil; j = (j + 1) & mask {
		// The entry at j may fill the hole at i when its home is no
		// nearer to j than i is, walking the chain forwards.
		if (j-t.home(t.slots[j].pair))&mask >= (j-i)&mask {
			t.slots[i] = t.slots[j]
			i = j
		}
	}
	t.slots[i] = nil
	t.n--
}

// grow doubles the table, or sizes it on first use, and re-files every
// entry.
func (t *entryTable) grow() {
	old := t.slots
	size := max(2*len(old), minEntrySlots)
	t.slots = make([]*tableEntry, size)
	t.shift = uint(64 - bits.TrailingZeros(uint(size)))
	for _, e := range old {
		if e != nil {
			t.slots[t.slot(e.pair)] = e
		}
	}
}
