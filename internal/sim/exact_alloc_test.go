package sim

import (
	"runtime"
	"runtime/debug"
	"testing"
	"time"
)

// TestExactAllocCounts pins that what a run allocates does not depend on
// the collector: two small runs in the benchmark workloads' shapes —
// Flash under churn with hold spans and a retry (ripple-churn's), and
// ShortestPath with RTTs, hold spans, a deadline and retries
// (engine-churn's) — each allocate exactly as much after collections as
// without any since the last run. Sessions, searches, probed states and
// path orders come from free lists a collection does not empty, so
// nothing is refilled after one, and no table's growth depends on a
// hash seed. The network, router and payment stream are built outside
// the count, as a benchmark rep builds them outside its timer, after one
// run that warms the free lists.
//
// The collections run between the runs, as they do between a
// benchmark's reps, not during the counted run: MemStats.Mallocs counts
// the whole process, and each collection wakes runtime work that
// allocates on its own (the unique package's map cleanup, linked in
// through net/netip), so a count taken across collections is not the
// simulator's alone. After collecting, the test sleeps for that work to
// finish before it counts, and its warm-up collects and sleeps once too,
// so that the runtime's own one-time growth (its timer heaps) is paid
// before anything is counted.
func TestExactAllocCounts(t *testing.T) {
	flash := Scenario{
		Kind: KindRipple, Nodes: 120, ScaleFactor: 10, MiceFraction: 0.9,
		Arrival: ArrivalPoisson, Duration: 20, Rate: 30,
		ChurnRate: 25, RebalanceRate: 25,
		DynamicOptions: DynamicOptions{Seed: 7, Service: 0.05, Retries: 1},
	}
	shortest := Scenario{
		Kind: KindRipple, Nodes: 100, ScaleFactor: 10, MiceFraction: 0.9,
		Arrival: ArrivalPoisson, Duration: 10, Rate: 60,
		ChurnRate: 25, RebalanceRate: 25, LatencyMedian: 0.005, LatencySigma: 0.8,
		DynamicOptions: DynamicOptions{Seed: 7, Service: 0.05, Retries: 2, Deadline: 0.25},
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, tc := range []struct {
		scheme string
		sc     Scenario
	}{{SchemeFlash, flash}, {SchemeShortestPath, shortest}} {
		c, err := tc.sc.newCell(tc.sc.Seed)
		if err != nil {
			t.Fatal(err)
		}
		// run replays the cell once, collecting garbage first when
		// collect is set, and returns what the replay allocated.
		run := func(collect bool) uint64 {
			net := c.net.Clone()
			spec := tc.sc.Router
			spec.Scheme, spec.Threshold, spec.Seed = tc.scheme, c.threshold, c.seed
			r, err := BuildRouter(spec)
			if err != nil {
				t.Fatal(err)
			}
			src, err := c.source()
			if err != nil {
				t.Fatal(err)
			}
			opts := tc.sc.DynamicOptions
			opts.Seed = c.seed
			if collect {
				// Two collections: an object whose finalizer or cleanup
				// the first one runs is freed only by the second.
				runtime.GC()
				runtime.GC()
				time.Sleep(10 * time.Millisecond)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			res, err := RunDynamic(net, r, src, c.horizon, c.churn, c.threshold, opts)
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			if res.Aggregate.Payments < 200 || res.Aggregate.Successes == 0 {
				t.Fatalf("%s: %d payments, %d delivered: want a few hundred, some delivered", tc.scheme, res.Aggregate.Payments, res.Aggregate.Successes)
			}
			if after.NumGC != before.NumGC {
				t.Fatalf("%s: a collection ran during the counted run", tc.scheme)
			}
			return after.Mallocs - before.Mallocs
		}
		run(true) // warm the free lists and the runtime
		run(false)
		if collected, uncollected := run(true), run(false); collected != uncollected {
			t.Errorf("%s: a run allocates %d objects after two collections, %d with none since the last run", tc.scheme, collected, uncollected)
		}
	}
}
