// Package testbed orchestrates a cluster of TCP nodes (package node) on
// the local machine, reproducing the paper's prototype evaluation
// (§5.2): every network participant is an independent protocol
// endpoint bound to its own loopback address, payments are driven
// through real PROBE/COMMIT/CONFIRM message exchanges, and the harness
// reports success volume, success ratio and processing delay.
package testbed

import (
	"fmt"
	"math"
	"time"

	"repro/internal/node"
	"repro/internal/pcn"
	"repro/internal/route"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/topo"
	"repro/internal/trace"
)

// Cluster is a set of running nodes covering one topology.
type Cluster struct {
	graph *topo.Graph
	nodes []*node.Node
}

// NewCluster boots one node per topology vertex, each with its own TCP
// listener, and installs the mutual address registry. Balances are
// assigned afterwards, by FromNetwork.
func NewCluster(g *topo.Graph, timeout time.Duration) (*Cluster, error) {
	c := &Cluster{graph: g, nodes: make([]*node.Node, g.NumNodes())}
	registry := make(map[topo.NodeID]string, g.NumNodes())
	for i := 0; i < g.NumNodes(); i++ {
		n, err := node.New(node.Config{ID: topo.NodeID(i), Graph: g, Timeout: timeout})
		if err != nil {
			c.Close()
			return nil, fmt.Errorf("testbed: starting node %d: %w", i, err)
		}
		c.nodes[i] = n
		registry[topo.NodeID(i)] = n.Addr()
	}
	for _, n := range c.nodes {
		n.SetPeers(registry)
	}
	return c, nil
}

// Node returns the node with the given ID.
func (c *Cluster) Node(id topo.NodeID) *node.Node { return c.nodes[id] }

// Close shuts every node down.
func (c *Cluster) Close() {
	for _, n := range c.nodes {
		if n != nil {
			n.Close()
		}
	}
}

// FromNetwork copies balances and fees from an in-memory network over
// the same topology, letting testbed runs start from states identical
// to simulator runs.
func (c *Cluster) FromNetwork(net *pcn.Network) error {
	if net.Graph() != c.graph {
		return fmt.Errorf("testbed: network topology differs from cluster topology")
	}
	for _, e := range c.graph.Channels() {
		ab, ba := net.Balance(e.A, e.B), net.Balance(e.B, e.A)
		feeAB, feeBA := net.Fee(e.A, e.B), net.Fee(e.B, e.A)
		if err := c.setChannel(e.A, e.B, ab, ba, feeAB, feeBA); err != nil {
			return err
		}
	}
	return nil
}

// setChannel installs consistent channel state on both endpoints.
func (c *Cluster) setChannel(a, b topo.NodeID, balAB, balBA float64, feeAB, feeBA pcn.FeeSchedule) error {
	if err := c.nodes[a].SetChannel(b, balAB, balBA, feeAB, feeBA); err != nil {
		return err
	}
	return c.nodes[b].SetChannel(a, balBA, balAB, feeBA, feeAB)
}

// CheckConsistency verifies that for every channel the two endpoints
// agree on both directional balances — the distributed analogue of the
// simulator's conservation invariant, and the property the prototype's
// CONFIRM_ACK mirroring exists to maintain.
func (c *Cluster) CheckConsistency() error {
	for _, e := range c.graph.Channels() {
		outA, inA := c.nodes[e.A].Balances(e.B)
		outB, inB := c.nodes[e.B].Balances(e.A)
		if math.Abs(outA-inB) > 1e-6 || math.Abs(inA-outB) > 1e-6 {
			return fmt.Errorf("testbed: channel %d-%d inconsistent: A sees (out=%v,in=%v), B sees (out=%v,in=%v)",
				e.A, e.B, outA, inA, outB, inB)
		}
		if outA < -1e-6 || inA < -1e-6 {
			return fmt.Errorf("testbed: channel %d-%d negative balance", e.A, e.B)
		}
	}
	return nil
}

// TotalFunds sums all channel funds (each endpoint's own spendable
// balance), a conserved quantity.
func (c *Cluster) TotalFunds() float64 {
	total := 0.0
	for _, e := range c.graph.Channels() {
		outA, _ := c.nodes[e.A].Balances(e.B)
		outB, _ := c.nodes[e.B].Balances(e.A)
		total += outA + outB
	}
	return total
}

// RouterFactory builds the router a given node runs. Each node owns its
// router instance, as on the paper's testbed where every process runs
// the routing algorithm locally.
type RouterFactory func(id topo.NodeID) (route.Router, error)

// Telemetry configures RunWorkload's observer tap: a flow sink
// receiving one record per payment, a registry accumulating
// scheme-labelled workload counters, or both. The zero value disables
// observation. Scheme labels the records and metrics (defaults to
// "testbed" when empty).
type Telemetry struct {
	Scheme   string
	Sink     telemetry.Sink
	Registry *telemetry.Registry
}

// workloadObserver is the testbed's per-payment telemetry tap,
// mirroring the simulator's: registry rollups plus flow records. The
// testbed is a real-time harness, so records carry seconds since
// workload start as their virtual arrival/completion stamps.
type workloadObserver struct {
	sink   telemetry.Sink
	scheme string

	payments, successes, failures *telemetry.Counter
	volume, probeMsgs, commitMsgs *telemetry.Counter
	nodeMsgs                      *telemetry.Counter
	latency                       *telemetry.Histogram
}

func newWorkloadObserver(tel Telemetry) *workloadObserver {
	if tel.Sink == nil && tel.Registry == nil {
		return nil
	}
	scheme := tel.Scheme
	if scheme == "" {
		scheme = "testbed"
	}
	o := &workloadObserver{sink: tel.Sink, scheme: scheme}
	if reg := tel.Registry; reg != nil {
		lbl := `{scheme="` + scheme + `"}`
		o.payments = reg.Counter("testbed_payments_total"+lbl, "Payments completed, all outcomes.")
		o.successes = reg.Counter("testbed_payments_delivered_total"+lbl, "Payments fully delivered.")
		o.failures = reg.Counter("testbed_payments_failed_total"+lbl, "Payments undelivered.")
		o.volume = reg.Counter("testbed_success_volume"+lbl, "Delivered payment volume.")
		o.probeMsgs = reg.Counter("testbed_probe_messages_total"+lbl, "Probe messages sent.")
		o.commitMsgs = reg.Counter("testbed_commit_messages_total"+lbl, "Commit-phase messages sent.")
		o.nodeMsgs = reg.Counter("testbed_node_messages_total",
			"Protocol messages written to peer connections across all testbed nodes.")
		o.latency = reg.Histogram("testbed_payment_latency_seconds",
			"Wall-clock routing latency of individual testbed payments.",
			telemetry.ExpBuckets(0.0001, 10, 8))
	}
	return o
}

// completed records one settled payment.
func (o *workloadObserver) completed(p trace.Payment, miceThreshold float64, sess *node.Session, arrival, complete float64, wall time.Duration, delivered bool) {
	if o.payments != nil {
		o.payments.Inc()
		o.probeMsgs.Add(float64(sess.ProbeMessages()))
		o.commitMsgs.Add(float64(sess.CommitMessages()))
		o.latency.Observe(wall.Seconds())
		if delivered {
			o.successes.Inc()
			o.volume.Add(p.Amount)
		} else {
			o.failures.Inc()
		}
	}
	if o.sink != nil {
		rec := telemetry.AcquireFlow()
		rec.ID = int64(p.ID)
		rec.Scheme = o.scheme
		rec.Sender = int64(p.Sender)
		rec.Receiver = int64(p.Receiver)
		rec.Amount = p.Amount
		rec.Class = telemetry.ClassElephant
		if p.Amount <= miceThreshold {
			rec.Class = telemetry.ClassMouse
		}
		rec.Attempts = 1
		rec.ProbeRounds = sess.ProbeOps()
		rec.ProbeMessages = int64(sess.ProbeMessages())
		rec.CommitMessages = int64(sess.CommitMessages())
		rec.Paths = sess.PathsUsed()
		rec.Arrival = arrival
		rec.Complete = complete
		rec.WallNS = int64(wall)
		outcome := telemetry.OutcomeFailed
		if delivered {
			outcome = telemetry.OutcomeDelivered
		}
		rec.Outcome = outcome
		o.sink.Emit(rec)
		telemetry.ReleaseFlow(rec)
	}
}

// MessagesSent sums the wire messages every node in the cluster has
// written — the live traffic gauge behind RunWorkload's telemetry.
func (c *Cluster) MessagesSent() int64 {
	total := int64(0)
	for _, n := range c.nodes {
		if n != nil {
			total += n.MessagesSent()
		}
	}
	return total
}

// RunWorkload replays payments over the cluster one at a time, from
// one client (the paper's testbed metric is per-payment processing
// delay), and collects the same metrics as the simulator.
// miceThreshold classifies payments for the mice-delay metric. Each
// sender routes with its own router, built by factory on first use, as
// on the paper's testbed where every process routes locally. tel taps
// every payment as it settles, so a live /metrics endpoint shows the
// workload progressing; it is observer-only, and the zero value turns
// it off.
func (c *Cluster) RunWorkload(factory RouterFactory, payments []trace.Payment, miceThreshold float64, tel Telemetry) (sim.Metrics, error) {
	obs := newWorkloadObserver(tel)
	msgsBefore := c.MessagesSent()
	workloadStart := time.Now()
	routers := make(map[topo.NodeID]route.Router)
	var m sim.Metrics
	for _, p := range payments {
		if p.Sender == p.Receiver || p.Amount <= 0 {
			continue
		}
		r, ok := routers[p.Sender]
		if !ok {
			var err error
			if r, err = factory(p.Sender); err != nil {
				return m, fmt.Errorf("testbed: router for node %d: %w", p.Sender, err)
			}
			routers[p.Sender] = r
		}
		sess, err := c.nodes[p.Sender].NewSession(p.Receiver, p.Amount)
		if err != nil {
			return m, fmt.Errorf("testbed: payment %d: %w", p.ID, err)
		}
		start := time.Now()
		rerr := r.Route(sess)
		end := time.Now()
		elapsed := end.Sub(start)
		if !sess.Finished() {
			if aerr := sess.Abort(); aerr != nil {
				return m, fmt.Errorf("testbed: payment %d unfinished and unabortable: %w", p.ID, aerr)
			}
			rerr = fmt.Errorf("testbed: router left session unfinished")
		}
		// The paper's testbed overhead metric is the *processing* delay a
		// transaction causes (§5.3) — the routing work at the sender, not
		// network propagation — so time spent blocked on protocol round
		// trips is subtracted.
		processing := max(elapsed-sess.NetworkWait(), 0)
		m.Record(p.Amount, miceThreshold, processing,
			int64(sess.ProbeMessages()), int64(sess.CommitMessages()), sess.FeesPaid(), rerr == nil)
		if obs != nil {
			obs.completed(p, miceThreshold, sess,
				start.Sub(workloadStart).Seconds(), end.Sub(workloadStart).Seconds(),
				elapsed, rerr == nil)
		}
	}
	if obs != nil && obs.nodeMsgs != nil {
		obs.nodeMsgs.Add(float64(c.MessagesSent() - msgsBefore))
	}
	return m, nil
}
