// Package core implements Flash, the paper's routing algorithm for
// offchain payment networks (§3).
//
// Flash differentiates elephant payments from mice payments:
//
//   - Elephants (amount > Config.Threshold) run a modified Edmonds–Karp
//     search (paper Algorithm 1) that finds up to K candidate paths,
//     probing channel balances lazily along each, then splits the
//     payment across the paths with a fee-minimising linear program
//     (paper program (1)).
//   - Mice (everything else) are routed from a per-sender routing table
//     holding the top-M Yen shortest paths per receiver, tried in random
//     order with probe-on-failure partial payments.
//
// One Flash value serves any number of senders: routing tables are keyed
// by sender, which makes the same instance usable by a whole simulated
// network or by a single testbed node.
//
// Flash is safe for concurrent sessions. Routing tables are sharded per
// sender — an outer read-mostly map guarded by a RWMutex hands out one
// table per sender, and each table carries its own lock — so concurrent
// payments from different senders never contend on table state. All
// counters are atomics. The shared mutable state is the channel index
// (channelIndex: which entries cross which channel), locked briefly when
// an entry gets paths — a table miss, never a hit — and the router's RNG
// (used for the mice path order).
//
// With Config.ProbeWorkers > 1, elephant routing speculatively probes
// several candidate paths per round, in order on the session's
// goroutine, merges the results deterministically and charges each
// round its slowest probe in virtual time (see probe_pipeline.go).
package core

import (
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/route"
	"repro/internal/topo"
)

// Config parameterises a Flash router. The zero value is not useful;
// start from DefaultConfig.
type Config struct {
	// Threshold separates mice from elephants: payments with amount
	// strictly greater are elephants. The paper sets it per workload so
	// that 90% of payments are mice (§4.1). math.Inf(1) routes everything
	// as mice; 0 routes everything as elephants. Flash.SetThreshold can
	// re-calibrate the live value mid-run when the workload drifts.
	Threshold float64

	// K is the maximum number of candidate paths the elephant routing
	// probes (paper Algorithm 1 input k; 20 in the evaluation).
	K int

	// M is the number of shortest paths kept per receiver in the mice
	// routing table (paper m; 4 in the evaluation). M == 0 routes mice
	// payments with the elephant algorithm — the Figure 11 upper bound.
	M int

	// DisableFeeOpt turns off the LP fee optimisation: paths are then
	// filled sequentially in discovery order, the paper's Figure 9
	// baseline ("w/o optimization").
	DisableFeeOpt bool

	// ProbeAllK makes elephant routing probe the full K candidate paths
	// even after the accumulated flow covers the demand. Algorithm 1's
	// printed pseudocode checks "f ≥ d" after the loop (always-k); the
	// overhead discussion implies an early exit. The default is the
	// early exit; this flag selects the always-k reading, giving the fee
	// LP more slack at higher probing cost (see the ablation bench).
	ProbeAllK bool

	// FixedMiceOrder disables the random path order in mice routing and
	// uses ascending path length instead (an ablation; the paper argues
	// random order load-balances better, §3.3).
	FixedMiceOrder bool

	// TableCap bounds the number of receiver entries each sender's
	// routing table may hold; inserting beyond it evicts the
	// least-recently-used entry (counted in Stats.TableEvictions).
	// Snapshot-scale networks need the bound — a million senders cannot
	// each hold an unbounded path cache. 0 (the default) means
	// unbounded, which replays byte-identically to the uncapped table.
	TableCap int

	// ProbeWorkers is the probe width of elephant routing: candidate
	// paths probed per round, each round charged its slowest probe in
	// virtual time. Algorithm 1 as printed probes its candidate paths
	// one at a time, making elephant latency k sequential network round
	// trips; with ProbeWorkers > 1 the router instead speculates — each
	// round it computes up to ProbeWorkers distinct candidate shortest
	// paths on its current knowledge graph (BFS plus Yen-style
	// edge-avoidance spurs), probes them, and merges the results in
	// candidate-index order exactly as if they had been probed one at a
	// time (surplus probed knowledge is kept for later rounds, so
	// speculation is never wasted). ≤ 1 — the default — takes the
	// untouched sequential path, byte-identical to the original
	// algorithm; any fixed value replays deterministically for a fixed
	// seed, in memory and over TCP alike.
	ProbeWorkers int

	// Seed makes the router's random choices reproducible.
	Seed int64
}

// DefaultConfig returns the paper's evaluation settings, with the
// elephant threshold supplied by the caller (it is workload-dependent:
// the 90th percentile of payment sizes in the paper's runs).
func DefaultConfig(threshold float64) Config {
	return Config{
		Threshold: threshold,
		K:         20,
		M:         4,
		Seed:      1,
	}
}

// tableTTL evicts a receiver's routing-table entry after this many
// payments routed by the owning sender without touching that entry (the
// paper's timeout mechanism, §3.3).
const tableTTL = 50000

// Flash is the routing algorithm. It is safe for concurrent use (the
// testbed runs one router per node; the simulator shares one across N
// payment workers). See the package comment for the sharding scheme.
type Flash struct {
	cfg Config
	ttl int // tableTTL; tests shorten it

	// threshold is the live elephant classification boundary
	// (math.Float64bits-encoded): Config.Threshold seeds it, and
	// SetThreshold may re-calibrate it mid-run while payments route
	// concurrently, so the hot-path read in isElephantFor is an atomic
	// load rather than a field of cfg.
	threshold atomic.Uint64

	// probeWorkers is the live probe width: Config.ProbeWorkers seeds
	// it, and SetProbeWorkers may re-tune it mid-run (the control
	// plane's adaptive probe width), so the probe pipeline reads an
	// atomic rather than a field of cfg.
	probeWorkers atomic.Int32

	// senderThr holds per-sender elephant-threshold overrides
	// (SetSenderThreshold), consulted by the classification path before
	// the global threshold. senderThrCount gates the lookup: with no
	// overrides installed the classification path costs one extra
	// atomic load and never touches the map.
	senderMu       sync.RWMutex
	senderThr      map[topo.NodeID]float64
	senderThrCount atomic.Int32

	rngMu sync.Mutex
	rng   *rand.Rand

	// tablesMu guards the tables map. index (see channelIndex) is made
	// by New and never replaced.
	tablesMu sync.RWMutex
	tables   map[topo.NodeID]*routingTable
	index    *channelIndex

	elephants              atomic.Int64
	mice                   atomic.Int64
	tableHits              atomic.Int64
	tableMisses            atomic.Int64
	pathsReplaced          atomic.Int64
	tableInvalidations     atomic.Int64
	tableEvictions         atomic.Int64
	thresholdUpdates       atomic.Int64
	senderThresholdUpdates atomic.Int64
	probeWidthUpdates      atomic.Int64
	feeProgramFallbacks    atomic.Int64
}

// New returns a Flash router with the given configuration. Invalid
// values are normalised: K < 1 becomes 1, M < 0 becomes 0,
// ProbeWorkers < 1 becomes 1 (sequential probing).
func New(cfg Config) *Flash {
	if cfg.K < 1 {
		cfg.K = 1
	}
	if cfg.M < 0 {
		cfg.M = 0
	}
	if cfg.ProbeWorkers < 1 {
		cfg.ProbeWorkers = 1
	}
	f := &Flash{
		cfg:       cfg,
		ttl:       tableTTL,
		rng:       rand.New(rand.NewSource(cfg.Seed)),
		tables:    make(map[topo.NodeID]*routingTable),
		index:     newChannelIndex(),
		senderThr: make(map[topo.NodeID]float64),
	}
	f.threshold.Store(math.Float64bits(cfg.Threshold))
	f.probeWorkers.Store(int32(cfg.ProbeWorkers))
	return f
}

// Name implements route.Router.
func (f *Flash) Name() string { return "Flash" }

// Threshold returns the current elephant classification threshold.
func (f *Flash) Threshold() float64 {
	return math.Float64frombits(f.threshold.Load())
}

// SetThreshold swaps the elephant classification threshold — the
// adaptive re-calibration hook for workloads whose size distribution
// drifts (the paper sets the threshold "per workload" so ~90% of
// payments are mice; under a demand shift that quantile moves, and a
// pinned threshold silently misclassifies the whole post-shift
// stream). Safe concurrently with routing: in-flight payments classify
// against whichever value they loaded, exactly as a gossiped
// re-calibration would propagate.
//
// Lowering the threshold also invalidates the now-misclassified
// routing-table entries: an entry whose observed traffic exceeds the
// new threshold was serving payments that are elephants from here on,
// so the cached mice paths are dead weight — dropping them keeps the
// table (and its TTL clock) tracking genuine mice traffic. Raising the
// threshold drops nothing: cached entries only ever served amounts
// below the old threshold, which remain mice. Dropped entries count
// towards Stats.TableInvalidations; the swap itself towards
// Stats.ThresholdUpdates. Returns the number of entries dropped.
func (f *Flash) SetThreshold(t float64) int {
	old := math.Float64frombits(f.threshold.Swap(math.Float64bits(t)))
	if t == old {
		return 0
	}
	f.thresholdUpdates.Add(1)
	if t >= old {
		return 0
	}
	dropped := 0
	f.tablesMu.RLock()
	for _, tbl := range f.tables {
		dropped += tbl.dropAbove(t)
	}
	f.tablesMu.RUnlock()
	f.tableInvalidations.Add(int64(dropped))
	return dropped
}

// ThresholdFor returns the elephant classification threshold in effect
// for payments from the given sender: the sender's override if
// SetSenderThreshold installed one, the global threshold otherwise.
func (f *Flash) ThresholdFor(sender topo.NodeID) float64 {
	if f.senderThrCount.Load() > 0 {
		f.senderMu.RLock()
		t, ok := f.senderThr[sender]
		f.senderMu.RUnlock()
		if ok {
			return t
		}
	}
	return f.Threshold()
}

// SetSenderThreshold installs (or moves) a per-sender elephant
// threshold override — the sharded counterpart of SetThreshold for
// workloads where each sender's demand drifts independently (a sender
// streaming large transfers should classify against its own size
// distribution, not the network-wide quantile). Safe concurrently with
// routing: in-flight payments classify against whichever value they
// loaded, like SetThreshold.
//
// Lowering the sender's effective threshold also invalidates that
// sender's now-misclassified routing-table entries (same rule as
// SetThreshold, narrowed to the one table); entries dropped count
// towards Stats.TableInvalidations, the swap towards
// Stats.SenderThresholdUpdates. Returns the number of entries dropped.
func (f *Flash) SetSenderThreshold(sender topo.NodeID, t float64) int {
	f.senderMu.Lock()
	old, had := f.senderThr[sender]
	if had && old == t {
		f.senderMu.Unlock()
		return 0
	}
	f.senderThr[sender] = t
	if !had {
		f.senderThrCount.Add(1)
		old = f.Threshold()
	}
	f.senderMu.Unlock()
	f.senderThresholdUpdates.Add(1)
	if t >= old {
		return 0
	}
	dropped := 0
	f.tablesMu.RLock()
	tbl := f.tables[sender]
	f.tablesMu.RUnlock()
	if tbl != nil {
		dropped = tbl.dropAbove(t)
	}
	f.tableInvalidations.Add(int64(dropped))
	return dropped
}

// ProbeWorkers returns the live probe width: candidates probed per
// elephant round.
func (f *Flash) ProbeWorkers() int { return int(f.probeWorkers.Load()) }

// SetProbeWorkers re-tunes the live probe width — the adaptive
// probe-width hook: speculation trades messages for fewer rounds of
// virtual probe latency, and a feedback loop observing window metrics
// can widen or narrow it mid-run. The width is clamped to [1, Config.K]
// (a round wider than the candidate set is pure waste); the effective
// value is returned. Sessions pick up the new width on their next
// elephant payment.
func (f *Flash) SetProbeWorkers(w int) int {
	if w < 1 {
		w = 1
	}
	if w > f.cfg.K {
		w = f.cfg.K
	}
	if int(f.probeWorkers.Swap(int32(w))) != w {
		f.probeWidthUpdates.Add(1)
	}
	return w
}

// Route implements route.Router: it classifies the payment and
// dispatches to the elephant or mice algorithm, always finishing the
// session.
func (f *Flash) Route(s route.Session) error {
	if f.isElephantFor(s.Sender(), s.Demand()) || f.cfg.M == 0 {
		f.elephants.Add(1)
		return f.routeElephant(s)
	}
	f.mice.Add(1)
	return f.routeMice(s)
}

// isElephantFor classifies a payment amount against the sender's live
// effective threshold.
func (f *Flash) isElephantFor(sender topo.NodeID, amount float64) bool {
	return amount > f.ThresholdFor(sender)
}

// InvalidateChannel drops every cached routing-table entry whose paths
// traverse the channel u–v (in either direction), whichever sender owns
// it. It is how the router follows a topology change: when the dynamic
// network closes or opens a channel, only the entries actually routing
// over it are recomputed on their next use
// ("all entries are re-computed using the latest G", §3.3, narrowed to
// the affected entries). The channel index names those entries, so an
// event costs what it drops and a channel no table uses costs a map
// lookup (see channelIndex, also for the lock order that makes this safe
// beside routing). An entry whose Yen run straddles the call may register
// after the channel's list is taken and stay: it holds what recomputing
// it would, the topology being static. Returns the number of entries
// dropped.
func (f *Flash) InvalidateChannel(u, v topo.NodeID) int {
	dropped := 0
	f.tablesMu.RLock()
	for _, e := range f.index.detach(u, v) {
		e.table.mu.Lock()
		if !e.dead.Load() { // not evicted, expired or dropped while we waited
			e.table.removeLocked(e)
			dropped++
		}
		e.table.mu.Unlock()
	}
	f.tablesMu.RUnlock()
	f.tableInvalidations.Add(int64(dropped))
	return dropped
}

// Pair identifies one (sender, receiver) routing-table slot.
type Pair struct {
	Sender, Receiver topo.NodeID
}

// Stats is a snapshot of the router's internal counters.
type Stats struct {
	Elephants              int64 // payments routed by the elephant algorithm
	Mice                   int64 // payments routed by the mice algorithm
	TableHits              int64 // mice payments whose receiver was cached
	TableMisses            int64 // mice payments requiring a Yen computation
	PathsReplaced          int64 // dead table paths replaced by the next Yen path
	TableInvalidations     int64 // entries dropped by InvalidateChannel (churn) or threshold moves
	TableEvictions         int64 // LRU entries evicted by the Config.TableCap bound
	ThresholdUpdates       int64 // SetThreshold calls that changed the threshold
	SenderThresholdUpdates int64 // SetSenderThreshold calls that moved an override
	ProbeWidthUpdates      int64 // SetProbeWorkers calls that changed the width
	FeeProgramFallbacks    int64 // elephant splits left to sequential filling because the fee program failed
	SenderThresholds       int   // senders with a live threshold override
	TableEntries           int   // receivers currently cached across all senders
}

// Stats returns a snapshot of the router's counters.
func (f *Flash) Stats() Stats {
	entries := 0
	f.tablesMu.RLock()
	for _, t := range f.tables {
		t.mu.Lock()
		entries += len(t.entries)
		t.mu.Unlock()
	}
	f.tablesMu.RUnlock()
	return Stats{
		Elephants:              f.elephants.Load(),
		Mice:                   f.mice.Load(),
		TableHits:              f.tableHits.Load(),
		TableMisses:            f.tableMisses.Load(),
		PathsReplaced:          f.pathsReplaced.Load(),
		TableInvalidations:     f.tableInvalidations.Load(),
		TableEvictions:         f.tableEvictions.Load(),
		ThresholdUpdates:       f.thresholdUpdates.Load(),
		SenderThresholdUpdates: f.senderThresholdUpdates.Load(),
		ProbeWidthUpdates:      f.probeWidthUpdates.Load(),
		FeeProgramFallbacks:    f.feeProgramFallbacks.Load(),
		SenderThresholds:       int(f.senderThrCount.Load()),
		TableEntries:           entries,
	}
}

// ThresholdForMiceFraction returns the elephant threshold that makes the
// given fraction of amounts mice: the frac-quantile of the amounts by
// nearest rank, the element at index ⌈frac·n⌉−1 of the amounts in
// ascending order. frac ≤ 0 makes every payment an elephant; frac ≥ 1
// makes every payment a mouse. It selects that element from one copy in
// O(n) expected work (O(n log n) at worst) and does not modify amounts.
// NaNs order before every number, as slices.Sort orders them.
func ThresholdForMiceFraction(amounts []float64, frac float64) float64 {
	if frac <= 0 {
		return 0
	}
	if frac >= 1 || len(amounts) == 0 {
		return math.Inf(1)
	}
	idx := int(math.Ceil(frac*float64(len(amounts)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(amounts) {
		idx = len(amounts) - 1
	}
	// NaNs go to the front of the copy, numbers fill it from the back.
	vals := make([]float64, len(amounts))
	nans, hi := 0, len(vals)
	for _, a := range amounts {
		if math.IsNaN(a) {
			vals[nans] = a
			nans++
		} else {
			hi--
			vals[hi] = a
		}
	}
	if idx < nans {
		return vals[idx]
	}
	nums := vals[nans:]
	nthElement(nums, idx-nans)
	return nums[idx-nans]
}

// nthElement reorders v, which holds no NaN, so that v[k] is the element
// an ascending sort would put there (an introselect). Each round
// partitions the range still holding k around the median of its first,
// middle and last elements; after 2·log2(len(v)) rounds it sorts that
// range instead, so adversarial inputs cost O(n log n). It reports
// whether that fallback ran.
func nthElement(v []float64, k int) (sorted bool) {
	lo, hi := 0, len(v)
	for budget := 2 * bits.Len(uint(len(v))); hi-lo > 1; budget-- {
		if budget == 0 {
			slices.Sort(v[lo:hi])
			return true
		}
		// Order v[lo] ≤ v[m] ≤ v[hi-1], then move the median to lo as
		// the pivot, which bounds the scans below.
		m := lo + (hi-lo)/2
		if v[m] < v[lo] {
			v[m], v[lo] = v[lo], v[m]
		}
		if v[hi-1] < v[m] {
			v[hi-1], v[m] = v[m], v[hi-1]
			if v[m] < v[lo] {
				v[m], v[lo] = v[lo], v[m]
			}
		}
		v[lo], v[m] = v[m], v[lo]
		// Hoare partition: v[lo..j] ≤ p ≤ v[j+1..hi-1], lo ≤ j < hi-1.
		p := v[lo]
		i, j := lo-1, hi
		for {
			for i++; v[i] < p; i++ {
			}
			for j--; v[j] > p; j-- {
			}
			if i >= j {
				break
			}
			v[i], v[j] = v[j], v[i]
		}
		if k <= j {
			hi = j + 1
		} else {
			lo = j + 1
		}
	}
	return false
}
