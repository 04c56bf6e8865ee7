package core

import (
	"math"
	"math/rand"
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

// TestFlashConcurrentSessions routes eight payers' streams through one
// shared Flash router, interleaved payment by payment, mixing mice and
// elephants from few, overlapping senders so the shared routing table
// and hub channels carry all of them. Every Route finishes its session,
// both classes route, funds are conserved and no hold outlives its
// session.
func TestFlashConcurrentSessions(t *testing.T) {
	const (
		nodes    = 40
		payers   = 8
		payments = 60
	)
	net := concurrencyFixture(t, nodes)
	before := net.TotalFunds()
	f := New(DefaultConfig(100)) // amounts >100 are elephants

	var rngs [payers]*rand.Rand
	for w := range rngs {
		rngs[w] = rand.New(rand.NewSource(int64(w) + 1))
	}
	for i := 0; i < payments; i++ {
		for _, rng := range rngs {
			// Few senders → heavy sharing of per-sender table state.
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
				t.Fatal(err)
			}
			_ = f.Route(tx) // failures are part of the workload
			if !tx.Finished() {
				t.Fatal("Route left session unfinished")
			}
		}
	}

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
