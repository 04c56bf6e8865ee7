// Package trace synthesises payment workloads with the statistical
// properties the paper measured on the real Ripple and Bitcoin traces
// (§2.2), and provides the analysis functions that regenerate Figures 3
// and 4 from any payment sequence.
//
// The two headline properties are:
//
//   - Heavy-tailed sizes (Figure 3): most payments are small, the top
//     10% carry ≈94.5% (Ripple) / 94.7% (Bitcoin) of total volume. We
//     model sizes as a mixture: a log-normal body for mice and a Pareto
//     tail for elephants, calibrated to the paper's published medians
//     and tail shares.
//   - Recurrence and clustering (Figure 4): ≈86% of a day's transactions
//     repeat an existing sender→receiver pair, and a sender's top-5
//     receivers cover ≈70% of its daily transactions. We model this with
//     per-sender receiver lists sampled through a Zipf distribution.
//
// The real datasets (2.6M Ripple transactions from crysp.uwaterloo.ca,
// 103M crawled Bitcoin transactions) are not redistributable; the
// generator is the documented substitution and cmd/tracegen verifies its
// statistics against the paper's numbers.
package trace

import (
	"fmt"
	"math/rand"

	"repro/internal/stats"
	"repro/internal/topo"
)

// Payment is one transaction: sender pays receiver amount at a logical
// time measured in days from the trace start.
type Payment struct {
	ID       int
	Sender   topo.NodeID
	Receiver topo.NodeID
	Amount   float64
	Time     float64 // days since trace start
}

// Day returns the 24-hour window index the payment falls in.
func (p Payment) Day() int { return int(p.Time) }

// SizeModel is a two-component payment-size mixture: a log-normal body
// ("mice") and a Pareto tail ("elephants").
type SizeModel struct {
	Name             string
	MiceMedian       float64 // median of the log-normal body
	MiceSigma        float64 // shape of the log-normal body
	ElephantMin      float64 // Pareto scale (minimum elephant size)
	ElephantAlpha    float64 // Pareto tail exponent
	ElephantFraction float64 // fraction of payments drawn from the tail
}

// RippleSizes reproduces the paper's Ripple statistics: median ≈ $4.8,
// top-10% ≥ $1,740 holding ≈94.5% of volume.
var RippleSizes = SizeModel{
	Name:             "ripple-usd",
	MiceMedian:       4.8,
	MiceSigma:        1.7,
	ElephantMin:      1740,
	ElephantAlpha:    2.0,
	ElephantFraction: 0.10,
}

// BitcoinSizes reproduces the paper's Bitcoin statistics: median ≈
// 1.293e6 satoshi, top-10% ≥ 8.9e7 satoshi holding ≈94.7% of volume.
var BitcoinSizes = SizeModel{
	Name:             "bitcoin-satoshi",
	MiceMedian:       1.293e6,
	MiceSigma:        1.2,
	ElephantMin:      8.9e7,
	ElephantAlpha:    1.3,
	ElephantFraction: 0.10,
}

// Sample draws one payment size.
func (m SizeModel) Sample(rng *rand.Rand) float64 {
	if rng.Float64() < m.ElephantFraction {
		return stats.Pareto(rng, m.ElephantMin, m.ElephantAlpha)
	}
	return stats.LogNormal(rng, m.MiceMedian, m.MiceSigma)
}

// The workload's fixed shape.
const (
	// receiverZipf skews which known receiver a recurring payment picks;
	// larger values concentrate on the top few (paper: top-5 receivers
	// cover ≈70% of recurring transactions). 1.6 matches the paper.
	receiverZipf = 1.6

	// senderZipf skews which node sends each payment (real transaction
	// activity is highly skewed across accounts).
	senderZipf = 1.0

	// PaymentsPerDay spaces logical timestamps; it only affects the
	// recurrence-window analysis, not routing.
	PaymentsPerDay = 2000
)

// Config parameterises a Generator.
type Config struct {
	// Nodes is the ID space payments are drawn from: senders and
	// receivers are in [0, Nodes).
	Nodes int

	// Graph, when non-nil, restricts sender/receiver pairs to nodes in
	// the same connected component (the paper "ensure[s] there exists at
	// least one path from sender to receiver", §5.2 footnote).
	Graph *topo.Graph

	// Sizes is the payment-size mixture.
	Sizes SizeModel

	// RecurrenceProb is the probability a payment goes to a receiver the
	// sender has paid before (paper: ≈86% of daily transactions recur).
	RecurrenceProb float64

	// Seed makes generation reproducible.
	Seed int64
}

// DefaultConfig returns a Ripple-like workload configuration over n
// nodes.
func DefaultConfig(n int) Config {
	return Config{
		Nodes:          n,
		Sizes:          RippleSizes,
		RecurrenceProb: 0.86,
		Seed:           1,
	}
}

// RecurrenceConfig returns Figure 4's workload: 100 active accounts
// at 2000 payments a day, which gives each sender the per-day
// transaction density of the real Ripple trace (the within-day
// recurrence statistic depends directly on it), at recurrence 0.93.
func RecurrenceConfig(seed int64) Config {
	cfg := DefaultConfig(100)
	cfg.RecurrenceProb = 0.93
	cfg.Seed = seed
	return cfg
}

// Generator produces a reproducible payment stream.
type Generator struct {
	cfg       Config
	rng       *rand.Rand
	senders   *stats.Zipf
	recurring *stats.Zipf                   // rank among a sender's known receivers
	receivers map[topo.NodeID][]topo.NodeID // per-sender known receivers
	component []int                         // component ID per node (when Graph set)
	next      int

	// amountScale multiplies sampled payment amounts; 1 by default. The
	// dynamic simulator's demand-shift events move it mid-stream.
	amountScale float64
}

// NewGenerator validates cfg and builds a generator.
func NewGenerator(cfg Config) (*Generator, error) {
	if cfg.Nodes < 2 {
		return nil, fmt.Errorf("trace: need at least 2 nodes, got %d", cfg.Nodes)
	}
	if cfg.Graph != nil && cfg.Graph.NumNodes() < cfg.Nodes {
		return nil, fmt.Errorf("trace: graph has %d nodes, config says %d",
			cfg.Graph.NumNodes(), cfg.Nodes)
	}
	if cfg.RecurrenceProb < 0 || cfg.RecurrenceProb > 1 {
		return nil, fmt.Errorf("trace: recurrence probability %v outside [0,1]", cfg.RecurrenceProb)
	}
	if cfg.Graph != nil && !hasChannel(cfg.Graph, cfg.Nodes) {
		// pickSender rejects a node without a channel, so it would draw forever.
		return nil, fmt.Errorf("trace: no node of the first %d has a channel", cfg.Nodes)
	}
	g := &Generator{
		cfg:         cfg,
		rng:         stats.NewRNG(cfg.Seed, 0xF1A54),
		senders:     stats.NewZipf(cfg.Nodes, senderZipf),
		recurring:   stats.NewZipf(1, receiverZipf),
		receivers:   make(map[topo.NodeID][]topo.NodeID),
		amountScale: 1,
	}
	if cfg.Graph != nil {
		g.component = cfg.Graph.Components()
	}
	return g, nil
}

// hasChannel reports whether any of g's first n nodes has a channel.
func hasChannel(g *topo.Graph, n int) bool {
	for u := range n {
		if g.Degree(topo.NodeID(u)) > 0 {
			return true
		}
	}
	return false
}

// connected reports whether a path can exist between a and b.
func (g *Generator) connected(a, b topo.NodeID) bool {
	if g.component == nil {
		return true
	}
	return g.component[a] == g.component[b]
}

// SetAmountScale multiplies all subsequently sampled payment amounts
// by factor — the demand-shift knob of the dynamic simulator. Factors
// ≤ 0 are ignored. The default scale of 1 leaves amounts untouched.
func (g *Generator) SetAmountScale(factor float64) {
	if factor > 0 {
		g.amountScale = factor
	}
}

// Next produces the next payment in the stream.
func (g *Generator) Next() Payment {
	sender := g.pickSender()
	receiver := g.pickReceiver(sender)
	amount := g.cfg.Sizes.Sample(g.rng)
	if g.amountScale != 1 {
		amount *= g.amountScale
	}
	p := Payment{
		ID:       g.next,
		Sender:   sender,
		Receiver: receiver,
		Amount:   amount,
		Time:     float64(g.next) / PaymentsPerDay,
	}
	g.next++
	return p
}

// Generate produces the next n payments, or nil when n ≤ 0.
func (g *Generator) Generate(n int) []Payment {
	if n <= 0 {
		return nil
	}
	ps := make([]Payment, n)
	for i := range ps {
		ps[i] = g.Next()
	}
	return ps
}

// pickSender draws a sender with Zipf-skewed activity; senders with no
// possible receiver (isolated nodes) are rejected.
func (g *Generator) pickSender() topo.NodeID {
	for {
		s := topo.NodeID(g.senders.Draw(g.rng))
		if g.component == nil || g.cfg.Graph.Degree(s) > 0 {
			return s
		}
	}
}

// pickReceiver implements the recurrence model: with RecurrenceProb pick
// a known receiver (Zipf over recency-independent rank — the first
// receivers a sender meets become its "favourites"), otherwise meet a
// new uniformly random receiver.
func (g *Generator) pickReceiver(sender topo.NodeID) topo.NodeID {
	known := g.receivers[sender]
	if len(known) > 0 && g.rng.Float64() < g.cfg.RecurrenceProb {
		return known[g.recurring.DrawPrefix(g.rng, len(known))]
	}
	// Meet someone new (falling back to a known receiver after too many
	// failed attempts on fragmented graphs).
	for attempt := 0; attempt < 64; attempt++ {
		r := topo.NodeID(g.rng.Intn(g.cfg.Nodes))
		if r == sender || !g.connected(sender, r) {
			continue
		}
		if !contains(known, r) {
			g.receivers[sender] = append(known, r)
		}
		return r
	}
	if len(known) > 0 {
		return known[g.rng.Intn(len(known))]
	}
	// Degenerate fallback: any distinct node (unreachable pairs simply
	// fail to route, which the simulator tolerates).
	r := topo.NodeID(g.rng.Intn(g.cfg.Nodes))
	for r == sender {
		r = topo.NodeID(g.rng.Intn(g.cfg.Nodes))
	}
	return r
}

func contains(xs []topo.NodeID, x topo.NodeID) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

// Amounts extracts the payment amounts from a trace (for threshold
// computation and CDF plots).
func Amounts(ps []Payment) []float64 {
	a := make([]float64, len(ps))
	for i, p := range ps {
		a[i] = p.Amount
	}
	return a
}
