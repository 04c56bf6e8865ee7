package topo

import "fmt"

// Interner maps external string node keys — Lightning pubkeys, Ripple
// addresses — to dense NodeIDs, in first-seen order. Real snapshots
// identify nodes by opaque strings; everything downstream (CSR arrays,
// pcn channel slots, routing tables) wants dense small integers, so the
// ingesters intern every key exactly once and the rest of the system
// never sees a string again.
type Interner struct {
	ids   map[string]NodeID
	names []string
}

// NewInterner returns an empty interner, optionally pre-sized.
func NewInterner(sizeHint int) *Interner {
	return &Interner{ids: make(map[string]NodeID, sizeHint)}
}

// Intern returns the dense NodeID for key, assigning the next free ID
// on first sight.
func (in *Interner) Intern(key string) NodeID {
	if id, ok := in.ids[key]; ok {
		return id
	}
	id := NodeID(len(in.names))
	in.ids[key] = id
	in.names = append(in.names, key)
	return id
}

// Lookup returns the NodeID previously assigned to key, or -1.
func (in *Interner) Lookup(key string) NodeID {
	if id, ok := in.ids[key]; ok {
		return id
	}
	return -1
}

// Name returns the external key of id.
func (in *Interner) Name(id NodeID) string {
	if int(id) < 0 || int(id) >= len(in.names) {
		return fmt.Sprintf("<node %d>", id)
	}
	return in.names[id]
}

// Len returns the number of interned keys.
func (in *Interner) Len() int { return len(in.names) }
