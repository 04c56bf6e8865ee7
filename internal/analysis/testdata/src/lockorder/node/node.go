// Package node is a lock-order-analyzer fixture in the shape of a
// package that still locks: per-connection mutexes, taken one at a time.
package node

import "sync"

// conn carries its own lock.
type conn struct {
	mu  sync.Mutex
	out int
}

// node holds the connections.
type node struct {
	conns []conn
}

// unlockAll releases in reverse; Unlock in a loop is always fine.
func (n *node) unlockAll() {
	for i := len(n.conns) - 1; i >= 0; i-- {
		n.conns[i].mu.Unlock()
	}
}

// single locks one connection for a scoped update: allowed.
func (n *node) single(i int) int {
	n.conns[i].mu.Lock()
	defer n.conns[i].mu.Unlock()
	return n.conns[i].out
}

// sequential locks one connection, releases it, then locks another:
// never holds two at once, allowed.
func (n *node) sequential(i, j int) {
	n.conns[i].mu.Lock()
	n.conns[i].mu.Unlock()
	n.conns[j].mu.Lock()
	n.conns[j].mu.Unlock()
}

// loopedLock acquires connection locks in a loop.
func (n *node) loopedLock(idxs []int) {
	for _, i := range idxs {
		n.conns[i].mu.Lock() // want `lockorder/loop: mutex Lock inside a loop`
	}
}

// nestedLock takes a second connection lock while one is held.
func (n *node) nestedLock(i, j int) {
	n.conns[i].mu.Lock()
	defer n.conns[i].mu.Unlock()
	n.conns[j].mu.Lock() // want `lockorder/nested: second conn lock acquired while n\.conns\[i\]\.mu is held`
	defer n.conns[j].mu.Unlock()
}
