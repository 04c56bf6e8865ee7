// Package pcn is a lock-order-analyzer fixture mirroring the real
// pcn's shape: per-channel mutexes and ascending-index acquire
// helpers.
package pcn

import "sync"

// channel mirrors the real per-channel lock-striped state.
type channel struct {
	mu  sync.Mutex
	bal float64
}

// network is the lock-striped container.
type network struct {
	chans []channel
}

// lockChannels is an acquire helper: looped locking is its job.
func (n *network) lockChannels(idxs []int) {
	for _, i := range idxs {
		n.chans[i].mu.Lock()
	}
}

// lockAll is the whole-network acquire helper.
func (n *network) lockAll() {
	for i := range n.chans {
		n.chans[i].mu.Lock()
	}
}

// unlockAll releases in reverse; Unlock in a loop is always fine.
func (n *network) unlockAll() {
	for i := len(n.chans) - 1; i >= 0; i-- {
		n.chans[i].mu.Unlock()
	}
}

// single locks one channel for a scoped update: allowed.
func (n *network) single(i int) float64 {
	n.chans[i].mu.Lock()
	defer n.chans[i].mu.Unlock()
	return n.chans[i].bal
}

// sequential locks one channel, releases it, then locks another:
// never holds two at once, allowed.
func (n *network) sequential(i, j int) {
	n.chans[i].mu.Lock()
	n.chans[i].mu.Unlock()
	n.chans[j].mu.Lock()
	n.chans[j].mu.Unlock()
}

// loopedLock acquires channel locks in a loop outside the helpers.
func (n *network) loopedLock(idxs []int) {
	for _, i := range idxs {
		n.chans[i].mu.Lock() // want `lockorder/loop: mutex Lock inside a loop outside the ascending-index acquire helpers`
	}
}

// nestedLock takes a second channel lock while one is held.
func (n *network) nestedLock(i, j int) {
	n.chans[i].mu.Lock()
	defer n.chans[i].mu.Unlock()
	n.chans[j].mu.Lock() // want `lockorder/nested: second channel lock acquired while n\.chans\[i\]\.mu is held`
	defer n.chans[j].mu.Unlock()
}

// helperWhileHeld batch-acquires while already holding a lock.
func (n *network) helperWhileHeld(i int, idxs []int) {
	n.chans[i].mu.Lock()
	defer n.chans[i].mu.Unlock()
	n.lockChannels(idxs) // want `lockorder/nested: lockChannels called while a lock is already held`
}
