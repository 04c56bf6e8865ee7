// Package baseline implements the routing schemes the paper compares
// Flash against (§4.1):
//
//   - ShortestPath — the static single-path baseline ("SP uses the path
//     with the fewest hops between the sender and receiver").
//   - Spider — the state-of-the-art dynamic scheme: waterfilling over 4
//     edge-disjoint shortest paths (Sivaraman et al.).
//   - SpeedyMurmurs — embedding-based routing over landmark spanning
//     trees with greedy distance-decreasing forwarding (Roos et al.).
//   - MaxFlowFullProbe — classic Edmonds–Karp with whole-network
//     probing, the unmodified algorithm Flash's Algorithm 1 descends
//     from (used by the probing-overhead ablation).
//
// All of them implement route.Router and run on the same Session
// abstraction as Flash, in both the simulator and the TCP testbed.
// The two static schemes, ShortestPath and Spider, choose their paths
// from the topology alone, so each keeps them in a per-pair table
// (pathTable) and searches only on a pair's first payment; SetCaching
// turns the table off.
package baseline

import (
	"repro/internal/graph"
	"repro/internal/route"
	"repro/internal/topo"
)

// ShortestPath routes every payment in full over the minimum-hop path,
// with no probing and no multipath. It is the paper's "SP" baseline.
// The path depends only on the topology, so it is searched once per
// sender/receiver pair and kept in the router's path table.
type ShortestPath struct {
	pathTable[topo.Path]
}

// NewShortestPath returns the SP baseline router.
func NewShortestPath() *ShortestPath { return &ShortestPath{} }

// Name implements route.Router.
func (sp *ShortestPath) Name() string { return "ShortestPath" }

// Route implements route.Router. The path is the table's own copy,
// handed to Hold as is: sessions never retain or modify a path.
func (sp *ShortestPath) Route(s route.Session) error {
	path := sp.get(s.Graph(), s.Sender(), s.Receiver(), sp.find)
	if path.IsZero() {
		if err := s.Abort(); err != nil {
			return err
		}
		return route.ErrNoRoute
	}
	if err := route.Hold(s, path, s.Demand()); err != nil {
		if aerr := s.Abort(); aerr != nil {
			return aerr
		}
		return route.ErrInsufficient
	}
	return s.Commit()
}

// find searches g for the minimum-hop hop path from s to t and returns
// its copy in the table's arena, or the zero Path when t is unreachable.
func (sp *ShortestPath) find(g *topo.Graph, s, t topo.NodeID) topo.Path {
	sc := graph.AcquireScratch()
	defer graph.ReleaseScratch(sc)
	return sp.arena.KeepPath(sc.Shortest(g, s, t, nil))
}
