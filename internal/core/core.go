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
// One Flash value serves any number of senders: its one routing table is
// keyed by (sender, receiver) pair, with each sender's TTL clock, LRU
// list and entry count in a slice indexed by sender, which makes the same
// instance usable by a whole simulated network or by a single testbed
// node. The table's entries come from one slab (mem.Slab) and their
// paths from one chunked path arena (topo.PathArena), so a table miss
// allocates nothing of its own until a chunk fills.
//
// One goroutine per run: a Flash value is used by one goroutine at a
// time, so its table, counters, thresholds and RNG are plain fields. A
// payment's working memory — its mice path order, an elephant's probed
// state, a search's graph.Scratch — comes from package-level free lists
// shared by every router, which independent runs on other goroutines
// draw from too, so each keeps its own mutex, held only to take or
// return one.
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

	"repro/internal/mem"
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

// Flash is the routing algorithm. One value serves every sender of a
// run (the testbed runs one per node); see the package comment.
type Flash struct {
	cfg Config
	ttl int // tableTTL; tests shorten it

	// threshold is the live elephant classification boundary:
	// Config.Threshold seeds it, and SetThreshold may re-calibrate it
	// mid-run.
	threshold float64

	// probeWorkers is the live probe width: Config.ProbeWorkers seeds
	// it, and SetProbeWorkers may re-tune it mid-run (the control
	// plane's adaptive probe width).
	probeWorkers int

	// senderThr holds per-sender elephant-threshold overrides
	// (SetSenderThreshold), consulted by the classification path before
	// the global threshold.
	senderThr map[topo.NodeID]float64

	rng *rand.Rand

	// The routing table: entries, senders, the slab the entries come
	// from, the path arena their paths are kept in, and the channel
	// index.
	entries entryTable
	senders []senderTable // by sender; grown to the graph's nodes
	slab    mem.Slab[tableEntry]
	arena   topo.PathArena
	index   channelIndex

	stats Stats // the counters; Stats fills in the two gauges
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
	return &Flash{
		cfg:          cfg,
		ttl:          tableTTL,
		threshold:    cfg.Threshold,
		probeWorkers: cfg.ProbeWorkers,
		rng:          rand.New(rand.NewSource(cfg.Seed)),
		index:        newChannelIndex(),
		senderThr:    make(map[topo.NodeID]float64),
	}
}

// Name implements route.Router: "Flash", or "Flash-NoOpt" when the fee
// optimisation is off, so the two variants label their flows and
// metrics apart.
func (f *Flash) Name() string {
	if f.cfg.DisableFeeOpt {
		return "Flash-NoOpt"
	}
	return "Flash"
}

// Threshold returns the current elephant classification threshold.
func (f *Flash) Threshold() float64 { return f.threshold }

// SetThreshold swaps the elephant classification threshold — the
// adaptive re-calibration hook for workloads whose size distribution
// drifts (the paper sets the threshold "per workload" so ~90% of
// payments are mice; under a demand shift that quantile moves, and a
// pinned threshold silently misclassifies the whole post-shift
// stream). Payments classify against the new value from their next
// Route, as a gossiped re-calibration would propagate.
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
	old := f.threshold
	f.threshold = t
	if t == old {
		return 0
	}
	f.stats.ThresholdUpdates++
	if t >= old {
		return 0
	}
	dropped := 0
	for s := range f.senders {
		dropped += f.dropAbove(topo.NodeID(s), t)
	}
	return dropped
}

// dropAbove removes sender's entries that served a payment above t, and
// returns how many, counting them as invalidations.
func (f *Flash) dropAbove(sender topo.NodeID, t float64) int {
	dropped := 0
	for e := f.senders[sender].head; e != nil; {
		next := e.next
		if e.maxAmount > t {
			f.remove(e)
			dropped++
		}
		e = next
	}
	f.stats.TableInvalidations += int64(dropped)
	return dropped
}

// ThresholdFor returns the elephant classification threshold in effect
// for payments from the given sender: the sender's override if
// SetSenderThreshold installed one, the global threshold otherwise.
func (f *Flash) ThresholdFor(sender topo.NodeID) float64 {
	if len(f.senderThr) > 0 { // no map lookup until an override exists
		if t, ok := f.senderThr[sender]; ok {
			return t
		}
	}
	return f.threshold
}

// SetSenderThreshold installs (or moves) a per-sender elephant
// threshold override — the sharded counterpart of SetThreshold for
// workloads where each sender's demand drifts independently (a sender
// streaming large transfers should classify against its own size
// distribution, not the network-wide quantile). Like SetThreshold, it
// applies from the sender's next Route.
//
// Lowering the sender's effective threshold also invalidates that
// sender's now-misclassified routing-table entries (same rule as
// SetThreshold, narrowed to the one table); entries dropped count
// towards Stats.TableInvalidations, the swap towards
// Stats.SenderThresholdUpdates. Returns the number of entries dropped.
func (f *Flash) SetSenderThreshold(sender topo.NodeID, t float64) int {
	old, had := f.senderThr[sender]
	if had && old == t {
		return 0
	}
	f.senderThr[sender] = t
	if !had {
		old = f.threshold
	}
	f.stats.SenderThresholdUpdates++
	if t >= old || int(sender) >= len(f.senders) {
		return 0
	}
	return f.dropAbove(sender, t)
}

// ProbeWorkers returns the live probe width: candidates probed per
// elephant round.
func (f *Flash) ProbeWorkers() int { return f.probeWorkers }

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
	if f.probeWorkers != w {
		f.probeWorkers = w
		f.stats.ProbeWidthUpdates++
	}
	return w
}

// Route implements route.Router: it classifies the payment and
// dispatches to the elephant or mice algorithm, always finishing the
// session.
func (f *Flash) Route(s route.Session) error {
	if f.isElephantFor(s.Sender(), s.Demand()) || f.cfg.M == 0 {
		f.stats.Elephants++
		return f.routeElephant(s)
	}
	f.stats.Mice++
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
// event costs what it drops and a channel no entry uses costs a map
// lookup (see channelIndex). Returns the number of entries dropped.
func (f *Flash) InvalidateChannel(u, v topo.NodeID) int {
	dropped := f.index.detach(u, v, f.remove)
	f.stats.TableInvalidations += int64(dropped)
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
	st := f.stats
	st.SenderThresholds = len(f.senderThr)
	st.TableEntries = f.entries.n
	return st
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
