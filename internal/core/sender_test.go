package core

import (
	"sync"
	"testing"

	"repro/internal/topo"
)

// TestSenderThresholdOverride pins the sharded-threshold semantics:
// classification falls through to the global threshold until an
// override is installed and overrides shard per sender.
func TestSenderThresholdOverride(t *testing.T) {
	net := thresholdNet(t)
	f := New(DefaultConfig(100))

	if got := f.ThresholdFor(0); got != 100 {
		t.Fatalf("ThresholdFor without override = %v, want the global 100", got)
	}
	if got := f.Stats().SenderThresholds; got != 0 {
		t.Fatalf("%d overrides tracked before any install", got)
	}

	f.SetSenderThreshold(0, 20)
	if got := f.ThresholdFor(0); got != 20 {
		t.Errorf("ThresholdFor(0) = %v, want the override 20", got)
	}
	if got := f.ThresholdFor(1); got != 100 {
		t.Errorf("ThresholdFor(1) = %v, want the global 100 (override must shard)", got)
	}

	// Sender 0's payment of 50 is now an elephant; the same amount from
	// sender 3 stays a mouse.
	routeOne(t, net, f, 0, 3, 50)
	routeOne(t, net, f, 3, 0, 50)
	st := f.Stats()
	if st.Elephants != 1 || st.Mice != 1 {
		t.Errorf("classification %+v, want 1 elephant (sender 0) and 1 mouse (sender 3)", st)
	}
	if st.SenderThresholdUpdates != 1 || st.SenderThresholds != 1 {
		t.Errorf("stats %+v, want 1 sender update, 1 tracked override", st)
	}

	// Same-value reinstall is a no-op.
	f.SetSenderThreshold(0, 20)
	if got := f.Stats().SenderThresholdUpdates; got != 1 {
		t.Errorf("no-op reinstall counted: %d updates", got)
	}
}

// TestSetSenderThresholdInvalidatesOwnTableOnly: lowering a sender's
// effective threshold drops that sender's now-misclassified cached
// entries — and only that sender's; other tables are untouched.
func TestSetSenderThresholdInvalidatesOwnTableOnly(t *testing.T) {
	net := thresholdNet(t)
	f := New(DefaultConfig(100))

	routeOne(t, net, f, 0, 3, 80) // sender 0 caches 0→3 with maxAmount 80
	routeOne(t, net, f, 3, 0, 80) // sender 3 caches 3→0 with maxAmount 80
	if entries := f.Stats().TableEntries; entries != 2 {
		t.Fatalf("cached %d entries, want 2", entries)
	}

	// Raising sender 0's threshold drops nothing.
	if dropped := f.SetSenderThreshold(0, 500); dropped != 0 {
		t.Errorf("raise dropped %d entries", dropped)
	}
	// Lowering it below the cached maxAmount drops sender 0's entry
	// only.
	if dropped := f.SetSenderThreshold(0, 50); dropped != 1 {
		t.Errorf("lower dropped %d entries, want 1", dropped)
	}
	st := f.Stats()
	if st.TableEntries != 1 {
		t.Errorf("%d entries cached after invalidation, want sender 3's 1", st.TableEntries)
	}

	// First install below the *global* threshold invalidates against
	// the global baseline (sender 3 had no override).
	if dropped := f.SetSenderThreshold(3, 50); dropped != 1 {
		t.Errorf("first-install lower dropped %d entries, want 1", dropped)
	}
}

// TestSetSenderThresholdConcurrentWithRouting hammers per-sender
// threshold swaps while payments route on other goroutines — the
// race-detector witness for the sharded-threshold satellite: the
// senderThr map behind its RWMutex, the count fast path, and the
// narrowed invalidation sweep all run against live ThresholdFor
// readers.
func TestSetSenderThresholdConcurrentWithRouting(t *testing.T) {
	net := thresholdNet(t)
	f := New(DefaultConfig(100))
	senders := []topo.NodeID{0, 1, 2, 3}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			from := senders[w]
			to := senders[(w+2)%len(senders)]
			for i := 0; i < 200; i++ {
				amount := float64(10 + (i+w)%150)
				tx, err := net.Begin(from, to, amount)
				if err != nil {
					t.Error(err)
					return
				}
				_ = f.Route(tx)
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 400; i++ {
			s := senders[i%len(senders)]
			switch {
			case i%13 == 0:
				f.SetThreshold(float64(20 + i%120))
			default:
				f.SetSenderThreshold(s, float64(20+i%120))
			}
			f.ThresholdFor(s)
			f.SetProbeWorkers(1 + i%4)
		}
	}()
	wg.Wait()
	st := f.Stats()
	if st.Mice+st.Elephants != 800 {
		t.Errorf("routed %d payments, want 800", st.Mice+st.Elephants)
	}
	if st.SenderThresholdUpdates == 0 {
		t.Error("no sender threshold updates recorded")
	}
}
