package sim

import "math/bits"

// pendingTable maps a pending payment's ID to its engine record. It is
// an open-addressing table with linear probing and backward-shift
// deletion, so no tombstone ever lengthens a probe chain. It doubles
// from minPendingSlots when half full; a run keeps at most a few
// hundred payments pending, so the slots stay in cache. A slot is empty
// when its record is nil.
type pendingTable struct {
	slots []pendingSlot
	shift uint // 64 - log2(len(slots))
	n     int
}

type pendingSlot struct {
	id int64
	dp *dynPayment
}

// minPendingSlots is the table's first size, a power of two.
const minPendingSlots = 64

// home is id's first probe: Fibonacci hashing, so consecutive IDs, and
// IDs that share their low bits, spread over the table.
func (t *pendingTable) home(id int64) int {
	return int((uint64(id) * 0x9E3779B97F4A7C15) >> t.shift)
}

// slot returns the index of id's slot, or of the empty slot that ends
// id's probe chain when id is not pending. The table must have slots.
func (t *pendingTable) slot(id int64) int {
	mask := len(t.slots) - 1
	i := t.home(id)
	for t.slots[i].dp != nil && t.slots[i].id != id {
		i = (i + 1) & mask
	}
	return i
}

// get returns id's record, or nil if id is not pending.
func (t *pendingTable) get(id int64) *dynPayment {
	if t.n == 0 {
		return nil
	}
	return t.slots[t.slot(id)].dp
}

// insert files dp under id and reports true, or reports false and
// changes nothing when id is already pending.
func (t *pendingTable) insert(id int64, dp *dynPayment) bool {
	if 2*(t.n+1) > len(t.slots) {
		t.grow()
	}
	i := t.slot(id)
	if t.slots[i].dp != nil {
		return false
	}
	t.slots[i] = pendingSlot{id: id, dp: dp}
	t.n++
	return true
}

// remove drops id, if pending. Each later record of the probe chain
// whose home does not lie between the hole and itself moves back into
// the hole, so every record stays reachable from its home without a
// tombstone.
func (t *pendingTable) remove(id int64) {
	if t.n == 0 {
		return
	}
	i := t.slot(id)
	if t.slots[i].dp == nil {
		return
	}
	mask := len(t.slots) - 1
	for j := (i + 1) & mask; t.slots[j].dp != nil; j = (j + 1) & mask {
		// The record at j may fill the hole at i when its home is no
		// nearer to j than i is, walking the chain forwards.
		if (j-t.home(t.slots[j].id))&mask >= (j-i)&mask {
			t.slots[i] = t.slots[j]
			i = j
		}
	}
	t.slots[i] = pendingSlot{}
	t.n--
}

// grow doubles the table, or sizes it on first use, and re-files every
// record.
func (t *pendingTable) grow() {
	old := t.slots
	size := max(2*len(old), minPendingSlots)
	t.slots = make([]pendingSlot, size)
	t.shift = uint(64 - bits.TrailingZeros(uint(size)))
	for _, s := range old {
		if s.dp != nil {
			t.slots[t.slot(s.id)] = s
		}
	}
}
