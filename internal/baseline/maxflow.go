package baseline

import (
	"math"

	"repro/internal/graph"
	"repro/internal/route"
	"repro/internal/topo"
)

// MaxFlowFullProbe is the unmodified Edmonds–Karp strawman that Flash's
// Algorithm 1 improves on: it learns every channel balance up front
// (equivalent to probing the whole network) and then runs classic
// max-flow. Its success volume upper-bounds any path-based scheme, but
// its probing cost scales with the network, which is exactly the paper's
// argument for the k-bounded lazy variant (§3.2: "probing each channel
// of each path whenever an elephant payment arrives does not scale").
//
// Probe accounting: the router charges itself one probe round trip per
// channel (2 messages each, both directions covered by one probe), the
// cost of a full-network balance collection.
type MaxFlowFullProbe struct{}

// NewMaxFlowFullProbe returns the full-probing max-flow router.
func NewMaxFlowFullProbe() *MaxFlowFullProbe { return &MaxFlowFullProbe{} }

// Name implements route.Router.
func (m *MaxFlowFullProbe) Name() string { return "MaxFlow-FullProbe" }

// Route implements route.Router.
func (m *MaxFlowFullProbe) Route(s route.Session) error {
	g := s.Graph()
	// Collect every channel's balances. LocalBalance stands in for the
	// network-wide probe whose message cost we charge explicitly below
	// by probing one shortest path per channel would be artificial;
	// instead the cost model is 2 messages per channel.
	chargeFullProbe(s)
	capOf := func(u, v topo.NodeID) float64 { return s.LocalBalance(u, v) }
	res := graph.MaxFlow(g, s.Sender(), s.Receiver(), capOf, -1, s.Demand())
	if res.Value < s.Demand()-route.Epsilon {
		if err := s.Abort(); err != nil {
			return err
		}
		return route.ErrInsufficient
	}
	// Hold a decomposition of the net flow, not the augmenting paths: a
	// later augmenting path may cancel flow an earlier one placed, so the
	// augmenting paths can carry more than a channel has. Flow that runs
	// both ways through a channel cancels; then each round holds the
	// minimum-hop s–t path over hops of positive net flow and subtracts
	// its bottleneck, which empties at least one hop. Flow left on
	// cycles moves nothing from s to t.
	net := make(map[graph.DirEdge]float64, len(res.Flow))
	for e, f := range res.Flow {
		if f -= res.Flow[e.Reverse()]; f > 0 {
			net[e] = f
		}
	}
	carries := func(u, v topo.NodeID, _ int32) bool { return net[graph.DirEdge{U: u, V: v}] > route.Epsilon }
	sc := graph.AcquireScratch()
	defer graph.ReleaseScratch(sc)
	for remaining := s.Demand(); remaining > route.Epsilon; {
		p := sc.Shortest(g, s.Sender(), s.Receiver(), carries) // HoldUpTo never retains it
		if p.IsZero() {
			break
		}
		hops := graph.PathEdges(p.Nodes())
		amount := math.Inf(1)
		for _, e := range hops {
			amount = math.Min(amount, net[e])
		}
		for _, e := range hops {
			net[e] -= amount
		}
		remaining -= route.HoldUpTo(s, p, math.Min(amount, remaining))
	}
	return route.Finish(s, route.ErrInsufficient)
}

// chargeFullProbe bills the session for a network-wide balance
// collection: one probe round trip (2 messages) per channel. The
// Session interface has no "charge messages" method, and a probe path
// must run from the sender to the receiver, so the cost is modelled by
// probing the shortest such path — one hop when the two share a channel —
// until the messages reach 2 × channels. When the receiver is
// unreachable the cost cannot be modelled and is skipped (the payment
// will fail anyway).
func chargeFullProbe(s route.Session) {
	g := s.Graph()
	sc := graph.AcquireScratch()
	defer graph.ReleaseScratch(sc)
	path := sc.Shortest(g, s.Sender(), s.Receiver(), nil) // Probe never retains it
	if path.IsZero() {
		return
	}
	hops := path.Hops()
	probes := (g.NumChannels() + hops - 1) / hops
	for i := 0; i < probes; i++ {
		if _, err := route.Probe(s, path); err != nil {
			return
		}
	}
}
