// Package parallel provides the bounded worker-pool primitive shared
// by the experiment figures' cells and Flash's per-session probe pool:
// N items drained by an atomic index dispenser over a fixed set of
// goroutines.
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Clamp resolves a requested worker count against n items: non-positive
// requests mean GOMAXPROCS, and the pool never exceeds the item count.
func Clamp(n, workers int) int {
	if n <= 0 {
		return 0
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	return workers
}

// ForEach runs fn(worker, i) for every i in [0, n), drained by up to
// workers goroutines (Clamp applies). worker is the stable pool index
// in [0, Clamp(n, workers)) of the goroutine running the call, so
// callers can shard accumulator state per worker without locks. fn
// must be safe for concurrent invocation; item order is unspecified.
// workers resolving to 1 runs inline, sequentially, in item order.
func ForEach(n, workers int, fn func(worker, i int)) {
	workers = Clamp(n, workers)
	if workers == 0 {
		return
	}
	if workers == 1 {
		for i := 0; i < n; i++ {
			fn(0, i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(w, i)
			}
		}(w)
	}
	wg.Wait()
}
