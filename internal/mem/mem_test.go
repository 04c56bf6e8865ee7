package mem

import (
	"runtime"
	"sync"
	"testing"
)

// TestSlabChunks: a Slab hands out distinct zeroed values, making its
// chunks at 16, 32, 64, 128 and then 256 values at a time: 752 values
// cost six allocations, and one more value a seventh.
func TestSlabChunks(t *testing.T) {
	const n = 16 + 32 + 64 + 128 + 256 + 256
	var s Slab[[2]int64]
	seen := make(map[*[2]int64]bool, n)
	for i := range n {
		v := s.New()
		if *v != [2]int64{} || seen[v] {
			t.Fatalf("value %d: %v, seen before %v; want a new zeroed value", i, *v, seen[v])
		}
		seen[v] = true
		v[0], v[1] = int64(i), -1
	}
	for v := range seen {
		if v[1] != -1 {
			t.Fatal("a value was overwritten by a later New")
		}
	}
	for _, tc := range []struct {
		values int
		want   float64
	}{{n, 6}, {n + 1, 7}} {
		if got := testing.AllocsPerRun(1, func() {
			var s Slab[[2]int64]
			for range tc.values {
				s.New()
			}
		}); got != tc.want {
			t.Errorf("%d values cost %v allocations, want %v", tc.values, got, tc.want)
		}
	}
}

// TestFreeListReuses: Get returns the value last Put, and a zeroed new
// one when none is held; once a list holds what its owner ever has out
// at once, a Get and Put allocate nothing.
func TestFreeListReuses(t *testing.T) {
	var l FreeList[[4]int]
	a, b := l.Get(), l.Get()
	if a == b || *a != [4]int{} || *b != [4]int{} {
		t.Fatalf("two Gets on an empty list: %p %v and %p %v, want distinct zeroed values", a, *a, b, *b)
	}
	a[0], b[0] = 1, 2
	l.Put(a)
	l.Put(b)
	if got := l.Get(); got != b {
		t.Fatalf("Get returned %p, want the value last put (%p)", got, b)
	}
	if got := l.Get(); got != a {
		t.Fatalf("Get returned %p, want %p", got, a)
	}
	if c := l.Get(); *c != [4]int{} {
		t.Fatalf("Get on an emptied list returned %v, want a zeroed value", *c)
	}
	l.Put(a)
	if got := testing.AllocsPerRun(100, func() { l.Put(l.Get()) }); got != 0 {
		t.Errorf("a warm Get and Put allocate %v, want 0", got)
	}
}

// TestFreeListConcurrent has goroutines draw, mark, check and return
// values at once: no value is out to two of them at a time. Run under
// the race detector, it also checks the list's locking.
func TestFreeListConcurrent(t *testing.T) {
	var l FreeList[int]
	var wg sync.WaitGroup
	for g := 1; g <= 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 2000 {
				v := l.Get()
				if *v != 0 {
					t.Errorf("goroutine %d drew a value goroutine %d holds", g, *v)
					return
				}
				*v = g
				runtime.Gosched()
				if *v != g {
					t.Errorf("goroutine %d's value changed while it held it", g)
					return
				}
				*v = 0
				l.Put(v)
			}
		}()
	}
	wg.Wait()
}
