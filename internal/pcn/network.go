// Package pcn models the state of a payment channel network: every
// channel's per-direction balance and fee schedule, plus the transaction
// machinery (probe / hold / commit / abort) that payments run through.
//
// The model follows the paper's semantics exactly:
//
//   - A channel between A and B holds two balances, one per direction
//     (§2.1). Their sum — the channel capacity — is invariant: a payment
//     of x over hop u→v moves x from bal(u→v) to bal(v→u).
//   - Multi-path payments are atomic (AMP, §3.1): partial payments are
//     held (reserved) and either all commit or all abort, mirroring the
//     prototype's two-phase commit (§5.1).
//   - Probing a path reveals the current available balance and fee
//     schedule of each hop and costs messages proportional to the hop
//     count (§4.2 "The number of probing messages along a path is
//     proportional to the number of hops of the path").
//
// Network is safe for concurrent use; Tx values are not (each payment
// session belongs to one goroutine, as in the real protocol where the
// sender drives its own payment).
//
// # Locking model
//
// Every channel carries its own mutex, so payments over disjoint
// channels never contend. Operations that span several channels (a
// probe or hold along a path, an atomic multi-path commit or abort)
// acquire the locks of every involved channel in ascending channel
// index order and release them together — a single global acquisition
// order, which makes deadlock impossible. Whole-network operations
// (Snapshot, Restore, TotalFunds, the Assign helpers) lock every
// channel in the same ascending order and therefore serialize against
// all in-flight payments. Hold counters are plain atomics. The released
// sessions a Network keeps for reuse sit behind one more mutex, their
// free list's (mem.FreeList), which is never held with another lock.
package pcn

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"

	"repro/internal/mem"
	"repro/internal/stats"
	"repro/internal/topo"
)

// FeeSchedule is the fee a channel direction charges to forward value:
// a fixed base plus a proportional rate, the "fixed fee plus a
// volume-dependent component" form the paper notes is typical (§3.2).
type FeeSchedule struct {
	Base float64 // flat fee per forwarded (partial) payment
	Rate float64 // proportional fee, e.g. 0.01 = 1% of forwarded volume
}

// Fee returns the fee charged for forwarding amount.
func (f FeeSchedule) Fee(amount float64) float64 {
	if amount <= 0 {
		return 0
	}
	return f.Base + f.Rate*amount
}

// HopInfo is what probing one directed hop reveals: the available
// balance and fee schedule of the hop, and of its reverse direction. A
// probed node reports both sides of its adjacent channel — it knows its
// own balance and, the channel capacity being common knowledge between
// the two channel parties, the counterparty's as well. Algorithm 1
// (lines 17–22) records both directions in the capacity matrix.
type HopInfo struct {
	Available        float64
	Fee              FeeSchedule
	ReverseAvailable float64
	ReverseFee       FeeSchedule
}

// channel is the mutable state of one payment channel, guarded by its
// own lock. Direction 0 is A→B (canonical endpoint order), direction 1
// is B→A. closed marks a channel that is currently out of service
// (cooperatively closed, or latent — in the topology but not yet opened):
// probes report zero availability and new holds are rejected, while
// balances stay frozen in place and holds established before the close
// still commit or abort normally, as in a cooperative close that waits
// out in-flight HTLCs.
type channel struct {
	mu     sync.Mutex
	bal    [2]float64
	held   [2]float64
	fee    [2]FeeSchedule
	closed bool

	// rttNanos is the channel's virtual round-trip time in integer
	// nanoseconds, charged once per protocol leg that crosses the hop
	// (probe, COMMIT, CONFIRM/REVERSE). Zero — the default — keeps the
	// historical instantaneous model. Latency is assigned before a
	// replay starts and immutable afterwards, so sessions read it
	// without the channel lock.
	rttNanos int64
}

// Network is a payment channel network: a topology plus per-channel
// balances and fees. Channel state is striped one lock per channel (see
// the package comment for the locking model).
type Network struct {
	graph *topo.Graph
	chans []channel

	holdsPlaced    atomic.Int64 // partial-payment holds reserved
	holdsCommitted atomic.Int64 // holds settled by commit/resume
	holdsAborted   atomic.Int64 // holds released by abort/span-abort

	hasLatency atomic.Bool // any channel carries a non-zero virtual RTT

	// sessions holds the sessions ReleaseTx handed back, for Begin to
	// reuse, and makes new ones in chunks: the network keeps as many as
	// were ever open at once.
	sessions mem.FreeList[Tx]
}

// New creates a network over g with every channel open and all
// balances zero. Balances are assigned afterwards via SetBalance or one
// of the Assign helpers. New freezes g: the topology is fixed for the
// network's life, and only liveness and funding change.
func New(g *topo.Graph) *Network {
	g.Freeze()
	return &Network{graph: g, chans: make([]channel, g.NumChannels())}
}

// Graph returns the underlying topology: shared, and frozen, so it
// cannot change under the network's readers.
func (n *Network) Graph() *topo.Graph { return n.graph }

// dir returns the channel index and direction for hop u→v: the node-path
// entry, where a hop's channel is looked up. topo.Edge puts the lower
// endpoint first, so the direction is u > v, with no read of the
// channel's endpoints.
func (n *Network) dir(u, v topo.NodeID) (int, int, error) {
	idx := n.graph.ChannelIndex(u, v)
	if idx < 0 {
		return 0, 0, fmt.Errorf("pcn: no channel %d→%d", u, v)
	}
	if u > v {
		return idx, 1, nil
	}
	return idx, 0, nil
}

// lockAll acquires every channel lock in ascending index order — the
// same global order path operations use — so whole-network reads and
// writes serialize against in-flight payments without deadlock risk.
func (n *Network) lockAll() {
	for i := range n.chans {
		n.chans[i].mu.Lock()
	}
}

// unlockAll releases the locks taken by lockAll.
func (n *Network) unlockAll() {
	for i := len(n.chans) - 1; i >= 0; i-- {
		n.chans[i].mu.Unlock()
	}
}

// SetBalance sets the two directional balances of the channel joining u
// and v: balUV spendable by u towards v, balVU the reverse.
func (n *Network) SetBalance(u, v topo.NodeID, balUV, balVU float64) error {
	if !(balUV >= 0) || !(balVU >= 0) || math.IsInf(balUV, 1) || math.IsInf(balVU, 1) {
		return fmt.Errorf("pcn: balance for channel %d-%d must be non-negative and finite, got %v/%v", u, v, balUV, balVU)
	}
	idx, d, err := n.dir(u, v)
	if err != nil {
		return err
	}
	ch := &n.chans[idx]
	ch.mu.Lock()
	defer ch.mu.Unlock()
	ch.bal[d] = balUV
	ch.bal[1-d] = balVU
	return nil
}

// SetFee sets the fee schedule charged for forwarding over hop u→v.
//
//flashvet:allow testonly/unused the one per-hop fee setter: the facade's fee examples (flash_test.go) and the pcn and core fee tests price single hops with it
func (n *Network) SetFee(u, v topo.NodeID, fee FeeSchedule) error {
	idx, d, err := n.dir(u, v)
	if err != nil {
		return err
	}
	ch := &n.chans[idx]
	ch.mu.Lock()
	defer ch.mu.Unlock()
	ch.fee[d] = fee
	return nil
}

// ScaleFee multiplies both directions' fee schedules (base and rate)
// of the channel joining u and v by factor — the fee-war churn hook: a
// node repricing its channels mid-run. factor must be positive and
// finite (a zero or negative factor would erase or invert the fee
// model). Safe concurrently with payments: the update happens under
// the channel's own lock, and in-flight probes simply observe either
// the old or the new schedule, exactly as a gossiped fee update would
// propagate.
func (n *Network) ScaleFee(u, v topo.NodeID, factor float64) error {
	if math.IsNaN(factor) || math.IsInf(factor, 0) || factor <= 0 {
		return fmt.Errorf("pcn: fee scale factor for channel %d-%d must be positive and finite, got %v", u, v, factor)
	}
	idx, _, err := n.dir(u, v)
	if err != nil {
		return err
	}
	ch := &n.chans[idx]
	ch.mu.Lock()
	defer ch.mu.Unlock()
	for d := range ch.fee {
		ch.fee[d].Base *= factor
		ch.fee[d].Rate *= factor
	}
	return nil
}

// SetChannelOpen opens or closes the channel joining u and v. Closing
// freezes its balances in place (new holds are rejected, probes see
// zero availability; in-flight holds still settle); reopening makes
// the frozen balances spendable again. Safe concurrently with
// payments: the toggle happens under the channel's own lock.
func (n *Network) SetChannelOpen(u, v topo.NodeID, open bool) error {
	idx, _, err := n.dir(u, v)
	if err != nil {
		return err
	}
	ch := &n.chans[idx]
	ch.mu.Lock()
	defer ch.mu.Unlock()
	ch.closed = !open
	return nil
}

// IsChannelOpen reports whether the channel joining u and v exists and
// is currently in service.
//
//flashvet:allow testonly/unused the churn tests of pcn and sim read a channel's liveness with it; a closed channel otherwise shows only as zero availability
func (n *Network) IsChannelOpen(u, v topo.NodeID) bool {
	idx, _, err := n.dir(u, v)
	if err != nil {
		return false
	}
	ch := &n.chans[idx]
	ch.mu.Lock()
	defer ch.mu.Unlock()
	return !ch.closed
}

// FundChannel sets the directional balances of the channel joining u
// and v like SetBalance, but never below that direction's outstanding
// holds — the safe funding primitive for churn ChannelOpen events,
// which may race in-flight payments (a plain SetBalance below an
// active hold would let the later commit drive the balance negative).
func (n *Network) FundChannel(u, v topo.NodeID, balUV, balVU float64) error {
	if balUV < 0 || balVU < 0 {
		return fmt.Errorf("pcn: negative funding for channel %d-%d", u, v)
	}
	idx, d, err := n.dir(u, v)
	if err != nil {
		return err
	}
	ch := &n.chans[idx]
	ch.mu.Lock()
	defer ch.mu.Unlock()
	ch.bal[d] = math.Max(balUV, ch.held[d])
	ch.bal[1-d] = math.Max(balVU, ch.held[1-d])
	return nil
}

// Rebalance evens the two directional balances of the channel joining
// u and v — the offchain rebalancing operation (circular self-payment
// or submarine swap) a depleted channel's owner performs. Funds move
// from the richer direction towards the 50/50 split, but never below
// that direction's outstanding holds, so the hold invariants survive
// concurrent payments. It returns the amount moved (0 for closed or
// already-balanced channels).
func (n *Network) Rebalance(u, v topo.NodeID) (float64, error) {
	idx, _, err := n.dir(u, v)
	if err != nil {
		return 0, err
	}
	ch := &n.chans[idx]
	ch.mu.Lock()
	defer ch.mu.Unlock()
	if ch.closed {
		return 0, nil
	}
	target := (ch.bal[0] + ch.bal[1]) / 2
	from := 0
	if ch.bal[1] > ch.bal[0] {
		from = 1
	}
	floor := ch.held[from]
	if floor < target {
		floor = target
	}
	move := ch.bal[from] - floor
	if move <= 0 {
		return 0, nil
	}
	ch.bal[from] -= move
	ch.bal[1-from] += move
	return move, nil
}

// Balance returns the current balance of hop u→v (0 if no channel). It
// does not subtract holds; see Available.
func (n *Network) Balance(u, v topo.NodeID) float64 {
	idx, d, err := n.dir(u, v)
	if err != nil {
		return 0
	}
	ch := &n.chans[idx]
	ch.mu.Lock()
	defer ch.mu.Unlock()
	return ch.bal[d]
}

// Available returns the spendable balance of hop u→v: balance minus
// outstanding holds, or 0 when the channel is closed.
func (n *Network) Available(u, v topo.NodeID) float64 {
	idx, d, err := n.dir(u, v)
	if err != nil {
		return 0
	}
	ch := &n.chans[idx]
	ch.mu.Lock()
	defer ch.mu.Unlock()
	if ch.closed {
		return 0
	}
	return ch.bal[d] - ch.held[d]
}

// Fee returns the fee schedule of hop u→v.
func (n *Network) Fee(u, v topo.NodeID) FeeSchedule {
	idx, d, err := n.dir(u, v)
	if err != nil {
		return FeeSchedule{}
	}
	ch := &n.chans[idx]
	ch.mu.Lock()
	defer ch.mu.Unlock()
	return ch.fee[d]
}

// HasLatency reports whether any channel carries a non-zero virtual
// RTT — the engine's one branch deciding whether latency accounting is
// live at all.
func (n *Network) HasLatency() bool { return n.hasLatency.Load() }

// latencyNanos returns channel idx's RTT in integer nanoseconds. All
// internal latency arithmetic stays in int64 nanos: integer additions
// commute exactly, so a probe round's charge and its overlap credit
// cancel without rounding — the float equivalent would make the digest
// depend on accumulation order.
func (n *Network) latencyNanos(idx int) int64 { return n.chans[idx].rttNanos }

// maxRTTNanos caps every channel's virtual RTT at one minute. The
// engine sums hop RTTs in int64 nanoseconds, so at the cap a sum wraps
// only past 2^63 / 6·10^10 ≈ 1.5·10^8 hop legs — more than any
// session's probes and holds travel, where an uncapped draw (a huge
// median or sigma) wraps alone.
const maxRTTNanos = 60e9

// AssignLatenciesLogNormal draws every channel's virtual RTT from a
// log-normal distribution with the given median (seconds) and shape
// sigma — heavy-tailed, like measured Lightning gossip latencies: most
// channels sit near the median with a slow tail of distant peers. Each
// draw is capped at maxRTTNanos. Channel order is construction order
// (file order for ingested snapshots), so a seeded rng maps real edges
// to latencies deterministically.
func (n *Network) AssignLatenciesLogNormal(rng *rand.Rand, median, sigma float64) {
	n.lockAll()
	defer n.unlockAll()
	any := false
	for i := range n.chans {
		n.chans[i].rttNanos = int64(math.Round(min(stats.LogNormal(rng, median, sigma)*1e9, maxRTTNanos)))
		if n.chans[i].rttNanos > 0 {
			any = true
		}
	}
	if any {
		n.hasLatency.Store(true)
	}
}

// TotalFunds returns the sum of all balances across all channels: a
// conserved quantity under payments (property tests rely on this).
func (n *Network) TotalFunds() float64 {
	n.lockAll()
	defer n.unlockAll()
	total := 0.0
	for i := range n.chans {
		total += n.chans[i].bal[0] + n.chans[i].bal[1]
	}
	return total
}

// ScaleBalances multiplies every directional balance by factor, the
// capacity-scale knob of Figures 6 and 7.
func (n *Network) ScaleBalances(factor float64) {
	n.lockAll()
	defer n.unlockAll()
	for i := range n.chans {
		n.chans[i].bal[0] *= factor
		n.chans[i].bal[1] *= factor
	}
}

// Snapshot captures all balances so a sweep can restore pristine state
// between runs without rebuilding the network.
func (n *Network) Snapshot() []float64 {
	n.lockAll()
	defer n.unlockAll()
	snap := make([]float64, 0, 2*len(n.chans))
	for i := range n.chans {
		snap = append(snap, n.chans[i].bal[0], n.chans[i].bal[1])
	}
	return snap
}

// Restore reinstates balances captured by Snapshot and clears holds and
// hold counters.
func (n *Network) Restore(snap []float64) error {
	if len(snap) != 2*len(n.chans) {
		return fmt.Errorf("pcn: snapshot has %d entries, want %d", len(snap), 2*len(n.chans))
	}
	n.lockAll()
	defer n.unlockAll()
	for i := range n.chans {
		n.chans[i].bal[0] = snap[2*i]
		n.chans[i].bal[1] = snap[2*i+1]
		n.chans[i].held[0] = 0
		n.chans[i].held[1] = 0
	}
	n.holdsPlaced.Store(0)
	n.holdsCommitted.Store(0)
	n.holdsAborted.Store(0)
	return nil
}

// Clone returns an independent network over the same frozen topology
// with n's balances, holds, fees, liveness and RTTs, and its hold
// counters at zero: a funded network copied for each of several runs
// that must start from the same state.
func (n *Network) Clone() *Network {
	n.lockAll()
	defer n.unlockAll()
	c := &Network{graph: n.graph, chans: make([]channel, len(n.chans))}
	for i := range n.chans {
		ch := &n.chans[i]
		c.chans[i] = channel{bal: ch.bal, held: ch.held, fee: ch.fee, closed: ch.closed, rttNanos: ch.rttNanos}
	}
	c.hasLatency.Store(n.hasLatency.Load())
	return c
}

// HoldsPlaced returns the cumulative number of partial-payment holds
// reserved by all sessions since construction or the last Restore.
func (n *Network) HoldsPlaced() int64 { return n.holdsPlaced.Load() }

// HoldsCommitted returns the cumulative number of holds settled by a
// commit (including deferred commits applied at Resume).
func (n *Network) HoldsCommitted() int64 { return n.holdsCommitted.Load() }

// HoldsAborted returns the cumulative number of holds released without
// settling — explicit aborts plus churn-invalidated span aborts.
func (n *Network) HoldsAborted() int64 { return n.holdsAborted.Load() }

// The Assign helpers fund and price the open channels, in channel
// order, and skip closed ones: a latent channel, closed before funding,
// draws nothing and keeps zero balances and fees until a churn event
// funds it.

// AssignBalancesLogNormal funds every open channel with a log-normal
// total (given median and shape sigma), split across the two
// directions: evenly when evenSplit is true (the paper's Ripple
// preprocessing) or by a uniform random fraction otherwise
// (approximating Lightning's skewed crawled distribution).
func (n *Network) AssignBalancesLogNormal(rng *rand.Rand, median, sigma float64, evenSplit bool) {
	n.lockAll()
	defer n.unlockAll()
	for i := range n.chans {
		if n.chans[i].closed {
			continue
		}
		total := stats.LogNormal(rng, median, sigma)
		frac := 0.5
		if !evenSplit {
			frac = rng.Float64()
		}
		n.chans[i].bal[0] = total * frac
		n.chans[i].bal[1] = total * (1 - frac)
	}
}

// AssignBalancesUniform funds every open channel with a total drawn
// uniformly from [lo, hi), split evenly — the testbed's capacity model
// (§5.2).
func (n *Network) AssignBalancesUniform(rng *rand.Rand, lo, hi float64) {
	n.lockAll()
	defer n.unlockAll()
	for i := range n.chans {
		if n.chans[i].closed {
			continue
		}
		total := lo + rng.Float64()*(hi-lo)
		n.chans[i].bal[0] = total / 2
		n.chans[i].bal[1] = total / 2
	}
}

// AssignBalancesFromCapacities funds open channel i with caps[i] — the
// per-channel totals of an ingested snapshot (topo.Snapshot.Capacity)
// — split evenly across the two directions, the paper's Ripple
// preprocessing. caps must cover every open channel.
func (n *Network) AssignBalancesFromCapacities(caps []float64) error {
	n.lockAll()
	defer n.unlockAll()
	for i := len(caps); i < len(n.chans); i++ {
		if !n.chans[i].closed {
			return fmt.Errorf("pcn: %d capacities for %d channels", len(caps), len(n.chans))
		}
	}
	for i := range n.chans {
		if n.chans[i].closed {
			continue
		}
		n.chans[i].bal[0] = caps[i] / 2
		n.chans[i].bal[1] = caps[i] / 2
	}
	return nil
}

// AssignFeesPaper assigns the fee model of the paper's Figure 9
// experiment to every open channel: 90% of channels charge a
// proportional rate drawn from [0.1%, 1%) and the remaining 10% from
// [1%, 10%), no base fee. Both directions of a channel share a
// schedule.
func (n *Network) AssignFeesPaper(rng *rand.Rand) {
	n.lockAll()
	defer n.unlockAll()
	for i := range n.chans {
		if n.chans[i].closed {
			continue
		}
		var rate float64
		if rng.Float64() < 0.9 {
			rate = 0.001 + rng.Float64()*0.009
		} else {
			rate = 0.01 + rng.Float64()*0.09
		}
		fee := FeeSchedule{Rate: rate}
		n.chans[i].fee[0] = fee
		n.chans[i].fee[1] = fee
	}
}
