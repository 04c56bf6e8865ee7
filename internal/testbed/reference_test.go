package testbed

import (
	"fmt"
	"math"
	"testing"
	"time"

	"repro/internal/pcn"
	"repro/internal/route"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/topo"
)

// replayInMemory routes the cell's payments over its pcn.Network
// exactly as RunWorkload routes them over a cluster: one payment at a
// time, each sender with its own router from factory.
func replayInMemory(t *testing.T, cell *Cell, name string, factory RouterFactory) sim.Metrics {
	t.Helper()
	routers := make(map[topo.NodeID]route.Router)
	var m sim.Metrics
	for _, p := range cell.Payments {
		if p.Sender == p.Receiver || p.Amount <= 0 {
			continue
		}
		r, ok := routers[p.Sender]
		if !ok {
			var err error
			if r, err = factory(p.Sender); err != nil {
				t.Fatal(err)
			}
			routers[p.Sender] = r
		}
		tx, err := cell.Net.Begin(p.Sender, p.Receiver, p.Amount)
		if err != nil {
			t.Fatal(err)
		}
		rerr := r.Route(tx)
		if !tx.Finished() {
			t.Fatalf("payment %d: %s left the session unfinished", p.ID, name)
		}
		m.Record(p.Amount, cell.Threshold, 0,
			int64(tx.ProbeMessages()), int64(tx.CommitMessages()), 0, rerr == nil)
	}
	return m
}

// flashWidth4 is the cell's Flash factory with a probe width of 4: the
// probe rounds must batch the same way whatever the session type.
func flashWidth4(c *Cell) RouterFactory {
	return func(id topo.NodeID) (route.Router, error) {
		return sim.BuildRouter(sim.RouterSpec{Scheme: sim.SchemeFlash, Threshold: c.Threshold,
			Seed: c.Seed + int64(id), ProbeWorkers: 4})
	}
}

// TestSimulatorIsTestbedReference replays one §5 cell twice — over the
// in-memory pcn.Network and over a TCP cluster loaded from it — and
// requires the same outcome: equal payment, success and message counts,
// bit-equal success volume, and every channel's balances, seen from
// both endpoints, equal up to summation order (1e-9). The schemes run
// with their cell factories, and Flash once more at probe width 4.
//
// SpeedyMurmurs is left out on purpose. It routes hop by hop on
// LocalBalance, which a node.Session answers only for the sender's own
// channels while the simulator knows them all, so the two substrates
// disagree by design: on seed 1's cell it delivers 21 of 300 payments
// over TCP against 272 in memory.
func TestSimulatorIsTestbedReference(t *testing.T) {
	if testing.Short() {
		t.Skip("TCP testbed replay skipped in -short mode")
	}
	cases := []struct {
		name    string
		routers func(*Cell) RouterFactory
	}{
		{sim.SchemeFlash, func(c *Cell) RouterFactory { return c.Routers(sim.SchemeFlash) }},
		{"Flash-width4", flashWidth4},
		{sim.SchemeSpider, func(c *Cell) RouterFactory { return c.Routers(sim.SchemeSpider) }},
		{sim.SchemeShortestPath, func(c *Cell) RouterFactory { return c.Routers(sim.SchemeShortestPath) }},
	}
	for _, tc := range cases {
		for seed := int64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("%s/seed=%d", tc.name, seed), func(t *testing.T) {
				t.Parallel() // each cell has its own network and cluster
				cell, err := NewCell(30, 300, seed, 1000, 1500)
				if err != nil {
					t.Fatal(err)
				}
				c := newTestCluster(t, cell.Net.Graph())
				if err := c.FromNetwork(cell.Net); err != nil {
					t.Fatal(err)
				}
				tcp, err := c.RunWorkload(tc.routers(cell), cell.Payments, cell.Threshold, Telemetry{})
				if err != nil {
					t.Fatal(err)
				}
				mem := replayInMemory(t, cell, tc.name, tc.routers(cell))

				if tcp.Payments != mem.Payments || tcp.Successes != mem.Successes ||
					math.Float64bits(tcp.SuccessVolume) != math.Float64bits(mem.SuccessVolume) ||
					tcp.ProbeMessages != mem.ProbeMessages || tcp.CommitMessages != mem.CommitMessages {
					t.Errorf("testbed %d/%d delivered, volume %v, %d probe + %d commit msgs; "+
						"simulator %d/%d, volume %v, %d + %d",
						tcp.Successes, tcp.Payments, tcp.SuccessVolume, tcp.ProbeMessages, tcp.CommitMessages,
						mem.Successes, mem.Payments, mem.SuccessVolume, mem.ProbeMessages, mem.CommitMessages)
				}
				for _, e := range cell.Net.Graph().Channels() {
					for _, end := range [][2]topo.NodeID{{e.A, e.B}, {e.B, e.A}} {
						u, v := end[0], end[1]
						out, in := c.Node(u).Balances(v)
						if math.Abs(out-cell.Net.Balance(u, v)) > 1e-9 || math.Abs(in-cell.Net.Balance(v, u)) > 1e-9 {
							t.Errorf("node %d sees channel to %d as (out %v, in %v), simulator (%v, %v)",
								u, v, out, in, cell.Net.Balance(u, v), cell.Net.Balance(v, u))
						}
					}
				}
			})
		}
	}
}

// TestWorkloadTelemetryIsObserverOnly replays a cell with and without a
// telemetry tap: the metrics must not move, and the registry and flow
// log must account for every payment the metrics count.
func TestWorkloadTelemetryIsObserverOnly(t *testing.T) {
	cell, err := NewCell(10, 60, 5, 1000, 1500)
	if err != nil {
		t.Fatal(err)
	}
	reg, flows := telemetry.NewRegistry(), telemetry.NewFlowLog(128)
	tel := Telemetry{Scheme: sim.SchemeFlash, Registry: reg, Sink: flows}
	var runs [2]sim.Metrics
	for i, tap := range []Telemetry{{}, tel} {
		if runs[i], err = cell.replay(sim.SchemeFlash, 5*time.Second, tap); err != nil {
			t.Fatal(err)
		}
	}
	off, on := runs[0], runs[1]
	if off.Payments != on.Payments || off.Successes != on.Successes || off.SuccessVolume != on.SuccessVolume ||
		off.ProbeMessages != on.ProbeMessages || off.CommitMessages != on.CommitMessages {
		t.Errorf("telemetry moved the metrics: off %+v, on %+v", off, on)
	}
	lbl := `{scheme="Flash"}`
	for name, want := range map[string]float64{
		"testbed_payments_total" + lbl:           float64(on.Payments),
		"testbed_payments_delivered_total" + lbl: float64(on.Successes),
		"testbed_success_volume" + lbl:           on.SuccessVolume,
		"testbed_probe_messages_total" + lbl:     float64(on.ProbeMessages),
	} {
		if got := reg.Counter(name, "").Value(); math.Abs(got-want) > 1e-9 {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	// Node writes are counted after they complete, so the gauge may lag
	// the last reply; it only has to have moved.
	if got := reg.Counter("testbed_node_messages_total", "").Value(); got <= 0 {
		t.Errorf("testbed_node_messages_total = %v, want > 0", got)
	}
	if got := flows.Total(); got != uint64(on.Payments) {
		t.Errorf("flow log holds %d records, want %d", got, on.Payments)
	}
}

// pathSpy records where every path a router probes or holds starts in
// memory.
type pathSpy struct {
	route.Session
	paths []*topo.NodeID
}

func (s *pathSpy) Probe(path []topo.NodeID) ([]pcn.HopInfo, error) {
	s.paths = append(s.paths, &path[0])
	return s.Session.Probe(path)
}

func (s *pathSpy) Hold(path []topo.NodeID, amount float64) error {
	s.paths = append(s.paths, &path[0])
	return s.Session.Hold(path, amount)
}

// TestRoutersSearchEveryPayment checks that Cell.Routers turns off the
// path table of both static baselines, so that a testbed payment pays
// for its own path computation, as in the paper's prototype: two
// payments of one pair must not share a path's memory.
func TestRoutersSearchEveryPayment(t *testing.T) {
	g := topo.Ring(6)
	net := pcn.New(g)
	for _, e := range g.Channels() {
		if err := net.SetBalance(e.A, e.B, 1e6, 1e6); err != nil {
			t.Fatal(err)
		}
	}
	c := &Cell{Net: net, Threshold: 1, Seed: 1}
	for _, scheme := range []string{sim.SchemeShortestPath, sim.SchemeSpider} {
		r, err := c.Routers(scheme)(0)
		if err != nil {
			t.Fatal(err)
		}
		var seen [2][]*topo.NodeID
		for i := range seen {
			tx, err := net.Begin(0, 3, 1)
			if err != nil {
				t.Fatal(err)
			}
			spy := &pathSpy{Session: tx}
			if err := r.Route(spy); err != nil {
				t.Fatalf("%s payment %d: %v", scheme, i, err)
			}
			seen[i] = spy.paths
		}
		if len(seen[0]) == 0 || len(seen[0]) != len(seen[1]) {
			t.Fatalf("%s: the payments used %d and %d paths", scheme, len(seen[0]), len(seen[1]))
		}
		for i := range seen[0] {
			if seen[0][i] == seen[1][i] {
				t.Errorf("%s: the second payment reuses path %d of the first: its path table is on", scheme, i)
			}
		}
	}
}
