package pcn

import (
	"errors"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/topo"
)

// hopPath is nodes as a hop path, its channels looked up in g.
func hopPath(g *topo.Graph, nodes []topo.NodeID) topo.Path {
	chans := make([]int32, 0, len(nodes))
	for i := 0; i+1 < len(nodes); i++ {
		chans = append(chans, int32(g.ChannelIndex(nodes[i], nodes[i+1])))
	}
	return topo.MakePath(nodes, chans)
}

// fundedBA is a random Barabási–Albert network, funded, priced and with
// an RTT on every channel, built from seed alone: two calls with one seed
// give two identical networks.
func fundedBA(t *testing.T, seed int64) *Network {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	g, err := topo.BarabasiAlbert(20+rng.Intn(40), 2+rng.Intn(2), rng)
	if err != nil {
		t.Fatal(err)
	}
	n := New(g)
	n.AssignBalancesLogNormal(rng, 100, 1, false)
	n.AssignFeesPaper(rng)
	n.AssignLatenciesLogNormal(rng, 0.01, 0.8)
	return n
}

// TestHopOpsEqualNodeOps probes and holds every Yen path between random
// pairs of 60 random networks twice, on two identical copies: once in the
// node form (Probe, Hold) and once in the hop form (ProbeHops, HoldHops).
// The two must agree on everything a session reports — every probe
// result, every hold's outcome, message counts, probe and commit latency,
// the held total — and leave the same balances after the commit.
func TestHopOpsEqualNodeOps(t *testing.T) {
	payments := 0
	for seed := int64(1); seed <= 60; seed++ {
		byNodes, byHops := fundedBA(t, seed), fundedBA(t, seed)
		g := byNodes.Graph()
		rng := rand.New(rand.NewSource(-seed))
		for pair := 0; pair < 4; pair++ {
			s, r := topo.NodeID(rng.Intn(g.NumNodes())), topo.NodeID(rng.Intn(g.NumNodes()))
			if s == r {
				continue
			}
			demand := 1 + 200*rng.Float64()
			txN, err := byNodes.Begin(s, r, demand)
			if err != nil {
				t.Fatal(err)
			}
			txH, err := byHops.Begin(s, r, demand)
			if err != nil {
				t.Fatal(err)
			}
			paths, _ := graph.Yen(byHops.Graph(), s, r, 6, nil, nil, nil)
			for i, p := range paths {
				infoN, errN := txN.Probe(p.Nodes())
				infoH, errH := txH.ProbeHops(p)
				if errN != nil || errH != nil || !slices.Equal(infoN, infoH) {
					t.Fatalf("seed %d %d→%d path %d %v: probe by nodes %v (%v), by hops %v (%v)", seed, s, r, i, p, infoN, errN, infoH, errH)
				}
				// Around the bottleneck, so that some holds fail.
				amount := (0.5 + rng.Float64()) * minAvailable(infoN)
				if amount <= 0 {
					amount = 1
				}
				errN, errH = txN.Hold(p.Nodes(), amount), txH.HoldHops(p, amount)
				if !errors.Is(errH, errN) {
					t.Fatalf("seed %d %d→%d path %d: hold %v by nodes: %v, by hops: %v", seed, s, r, i, amount, errN, errH)
				}
			}
			if txN.HeldTotal() != txH.HeldTotal() {
				t.Fatalf("seed %d %d→%d: held %v by nodes, %v by hops", seed, s, r, txN.HeldTotal(), txH.HeldTotal())
			}
			if txN.HeldTotal() > 0 {
				payments++
				if err := txN.Commit(); err != nil {
					t.Fatal(err)
				}
				if err := txH.Commit(); err != nil {
					t.Fatal(err)
				}
			} else {
				txN.Abort()
				txH.Abort()
			}
			type counts struct {
				probeMsgs, probeOps, commitMsgs int
				probeLat, commitLat             int64
				fees                            float64
			}
			count := func(tx *Tx) counts {
				return counts{tx.ProbeMessages(), tx.ProbeOps(), tx.CommitMessages(), tx.ProbeLatencyNanos(), tx.CommitLatencyNanos(), tx.FeesPaid()}
			}
			if cn, ch := count(txN), count(txH); cn != ch {
				t.Fatalf("seed %d %d→%d: by nodes %+v, by hops %+v", seed, s, r, cn, ch)
			}
			if bn, bh := byNodes.Snapshot(), byHops.Snapshot(); !slices.Equal(bn, bh) {
				t.Fatalf("seed %d %d→%d: balances differ after the commit", seed, s, r)
			}
			ReleaseTx(txN)
			ReleaseTx(txH)
		}
	}
	if payments < 100 {
		t.Errorf("only %d payments held anything: the comparison is too thin", payments)
	}
}

// minAvailable is the bottleneck of a probe result.
func minAvailable(info []HopInfo) float64 {
	m := info[0].Available
	for _, h := range info[1:] {
		m = min(m, h.Available)
	}
	return m
}

// badHopPaths are sender-0 → receiver-3 hop paths on lineNet (channel i
// joins i and i+1) that ProbeHops and HoldHops must reject with
// ErrBadPath, before touching any channel.
var badHopPaths = []struct {
	name string
	path topo.Path
}{
	{"channel joins other nodes", topo.MakePath([]topo.NodeID{0, 1, 2, 3}, []int32{0, 2, 1})},
	{"channel shares one endpoint", topo.MakePath([]topo.NodeID{0, 1, 2, 3}, []int32{0, 0, 2})},
	{"no channel between the nodes", topo.MakePath([]topo.NodeID{0, 2, 3}, []int32{1, 2})},
	{"channel out of range", topo.MakePath([]topo.NodeID{0, 1, 2, 3}, []int32{0, 1, 3})},
	{"negative channel", topo.MakePath([]topo.NodeID{0, 1, 2, 3}, []int32{0, -1, 2})},
	{"not from sender", topo.MakePath([]topo.NodeID{1, 2, 3}, []int32{1, 2})},
	{"not to receiver", topo.MakePath([]topo.NodeID{0, 1, 2}, []int32{0, 1})},
	{"no hops", topo.MakePath([]topo.NodeID{0}, nil)},
	{"zero", topo.Path{}},
}

func TestHopOpsRejectBadPaths(t *testing.T) {
	n := lineNet(t)
	before := n.Snapshot()
	tx, _ := n.Begin(0, 3, 10)
	for _, tc := range badHopPaths {
		if _, err := tx.ProbeHops(tc.path); !errors.Is(err, ErrBadPath) {
			t.Errorf("%s: ProbeHops(%v) = %v, want ErrBadPath", tc.name, tc.path, err)
		}
		if err := tx.HoldHops(tc.path, 1); !errors.Is(err, ErrBadPath) {
			t.Errorf("%s: HoldHops(%v) = %v, want ErrBadPath", tc.name, tc.path, err)
		}
	}
	if tx.ProbeMessages() != 0 || tx.CommitMessages() != 0 || tx.HeldTotal() != 0 {
		t.Errorf("rejected hop paths cost %d probe and %d commit messages, hold %v", tx.ProbeMessages(), tx.CommitMessages(), tx.HeldTotal())
	}
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(n.Snapshot(), before) {
		t.Error("rejected hop paths moved balances")
	}
	// The same nodes over the right channels pass.
	tx, _ = n.Begin(0, 3, 10)
	if err := tx.HoldHops(hopPath(n.Graph(), []topo.NodeID{0, 1, 2, 3}), 10); err != nil {
		t.Errorf("a good hop path: %v", err)
	}
	tx.Abort()
}
