package testbed

import (
	"fmt"
	"math"
	"testing"
	"time"

	"repro/internal/route"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/topo"
)

// replayInMemory routes the cell's payments over its pcn.Network
// exactly as RunWorkload routes them over a cluster: one payment at a
// time, each sender with its own router from the cell's factory.
func replayInMemory(t *testing.T, cell *Cell, scheme string) sim.Metrics {
	t.Helper()
	factory := cell.Routers(scheme)
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
			t.Fatalf("payment %d: %s left the session unfinished", p.ID, scheme)
		}
		m.Record(p.Amount, cell.Threshold, 0,
			int64(tx.ProbeMessages()), int64(tx.CommitMessages()), 0, rerr == nil)
	}
	return m
}

// TestSimulatorIsTestbedReference replays one §5 cell twice — over the
// in-memory pcn.Network and over a TCP cluster loaded from it — and
// requires the same outcome: equal payment, success and message counts,
// bit-equal success volume, and every channel's balances, seen from
// both endpoints, equal up to summation order (1e-9).
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
	for _, scheme := range []string{sim.SchemeFlash, sim.SchemeSpider, sim.SchemeShortestPath} {
		for seed := int64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("%s/seed=%d", scheme, seed), func(t *testing.T) {
				t.Parallel() // each cell has its own network and cluster
				cell, err := NewCell(30, 300, seed, 1000, 1500)
				if err != nil {
					t.Fatal(err)
				}
				c := newTestCluster(t, cell.Net.Graph())
				if err := c.FromNetwork(cell.Net); err != nil {
					t.Fatal(err)
				}
				tcp, err := c.RunWorkload(cell.Routers(scheme), cell.Payments, cell.Threshold, Telemetry{})
				if err != nil {
					t.Fatal(err)
				}
				mem := replayInMemory(t, cell, scheme)

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
