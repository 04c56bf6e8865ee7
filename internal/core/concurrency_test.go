package core

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/pcn"
	"repro/internal/topo"
)

// concurrencyFixture builds a well-funded scale-free network whose
// payments overlap heavily on shared hub channels.
func concurrencyFixture(t testing.TB, nodes int) *pcn.Network {
	t.Helper()
	rng := rand.New(rand.NewSource(9))
	g, err := topo.BarabasiAlbert(nodes, 3, rng)
	if err != nil {
		t.Fatal(err)
	}
	net := pcn.New(g)
	for _, e := range g.Channels() {
		if err := net.SetBalance(e.A, e.B, 500, 500); err != nil {
			t.Fatal(err)
		}
	}
	return net
}

// TestFlashConcurrentSessions drives one shared Flash router from many
// goroutines, mixing mice and elephants from overlapping senders, and
// checks the network invariants afterwards. Run with -race: it
// exercises the sharded routing tables, the atomic counters, and the
// per-channel network locks together.
func TestFlashConcurrentSessions(t *testing.T) {
	const (
		nodes    = 40
		workers  = 8
		payments = 60
	)
	net := concurrencyFixture(t, nodes)
	before := net.TotalFunds()
	f := New(DefaultConfig(100)) // amounts >100 are elephants

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w) + 1))
			for i := 0; i < payments; i++ {
				// Few senders → heavy sharing of per-sender tables.
				s := topo.NodeID(rng.Intn(4))
				r := topo.NodeID(rng.Intn(nodes))
				if s == r {
					continue
				}
				amount := 1 + rng.Float64()*30
				if i%5 == 0 {
					amount = 150 + rng.Float64()*300 // elephant
				}
				tx, err := net.Begin(s, r, amount)
				if err != nil {
					t.Error(err)
					return
				}
				tx.SetRNGSeed(int64(w*payments + i))
				_ = f.Route(tx) // failures are part of the workload
				if !tx.Finished() {
					t.Error("Route left session unfinished")
					return
				}
			}
		}(w)
	}
	wg.Wait()

	after := net.TotalFunds()
	if math.Abs(after-before) > 1e-6*before {
		t.Errorf("funds not conserved: before %v, after %v", before, after)
	}
	st := f.Stats()
	if st.Mice == 0 || st.Elephants == 0 {
		t.Errorf("expected both classes routed, got %+v", st)
	}
	// No session is live, so every channel's available balance must
	// equal its balance (no leaked holds).
	g := net.Graph()
	for _, e := range g.Channels() {
		if avail, bal := net.Available(e.A, e.B), net.Balance(e.A, e.B); math.Abs(avail-bal) > 1e-6 {
			t.Fatalf("leaked hold on %d-%d: available %v ≠ balance %v", e.A, e.B, avail, bal)
		}
	}
}
