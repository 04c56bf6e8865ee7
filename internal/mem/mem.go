// Package mem holds the two recyclers the simulator's hot paths draw
// their working memory from, so that a warm payment allocates nothing
// and a run's allocation count does not depend on when the collector
// runs: a Slab makes values in chunks, and a FreeList keeps released
// values for reuse, making new ones from its own Slab. Unlike a
// sync.Pool, neither ever drops what it holds.
package mem

import "sync"

// Chunk sizes of a Slab: its chunks double from firstChunk to maxChunk
// values.
const (
	firstChunk = 1 << 4
	maxChunk   = 1 << 8
)

// Slab makes values of T in chunks, for an owner that makes many and
// recycles them itself — a routing table's entries, an engine's payment
// records. Each chunk holds twice the values of the one before, up to a
// bound, so n values cost O(log n) allocations and then one per
// maxChunk. A value is never freed alone: its chunk stays allocated
// until no value in it is reachable. A Slab is not safe for concurrent
// use; its owner's lock guards it. The zero value is an empty slab whose
// first chunk is small.
type Slab[T any] struct {
	chunk []T // the current chunk: handed out, then room
}

// New returns a zeroed value from the current chunk.
func (s *Slab[T]) New() *T {
	if len(s.chunk) == cap(s.chunk) {
		s.chunk = make([]T, 0, min(max(2*cap(s.chunk), firstChunk), maxChunk))
	}
	s.chunk = s.chunk[:len(s.chunk)+1]
	return &s.chunk[len(s.chunk)-1]
}

// FreeList recycles values of T: Put hands one back and Get returns the
// last one handed back, or a zeroed new one from the list's slab when
// none is. It never shrinks, so it keeps as many values as were ever out
// at once, and a collection does not empty it. It is safe for concurrent
// use; its mutex is held only to take or return one value. The zero
// value is an empty list.
type FreeList[T any] struct {
	mu   sync.Mutex
	free []*T
	made Slab[T]
}

// Get returns the value last handed back, or a zeroed new one.
func (l *FreeList[T]) Get() *T {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := len(l.free) - 1
	if n < 0 {
		return l.made.New()
	}
	x := l.free[n]
	l.free = l.free[:n]
	return x
}

// Put hands x back for a later Get. The caller must not use x
// afterwards.
func (l *FreeList[T]) Put(x *T) {
	l.mu.Lock()
	l.free = append(l.free, x)
	l.mu.Unlock()
}
