package pcn

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"

	"repro/internal/topo"
)

// Errors returned by payment sessions.
var (
	ErrInsufficient = errors.New("pcn: insufficient balance on path")
	ErrFinished     = errors.New("pcn: session already committed or aborted")
	ErrBadPath      = errors.New("pcn: invalid path")
	ErrNotSuspended = errors.New("pcn: session is not suspended")
)

// Tx is one payment session: the sender's handle for probing paths,
// holding partial payments on them, and finally committing or aborting
// the whole payment atomically. It mirrors the prototype's protocol
// (§5.1): Probe ≈ PROBE/PROBE_ACK, Hold ≈ COMMIT/COMMIT_ACK, Commit ≈
// CONFIRM/CONFIRM_ACK, Abort ≈ REVERSE/REVERSE_ACK.
//
// A Tx is driven by a single goroutine and finished with exactly one
// Commit or Abort. Any number of Tx values may run concurrently over
// one Network: each operation locks only the channels it touches, in
// ascending channel-index order (see the package comment).
//
// # Working memory
//
// A Tx keeps its per-payment state in append-only arenas, each backed
// by a small inline array until it outgrows it, so a payment over a
// short path allocates nothing beyond the Tx itself: the hop arena
// holds every hold record's hops back to back (the space past its
// length resolves the path of the operation in flight), the
// probe-result arena every Probe result, and one buffer the lock order
// of the operation in flight. An arena only grows, and growth moves it
// to a new array and leaves the old one to its readers, so a slice
// handed out earlier is never overwritten: a Probe result is read-only
// and valid for the session's life. Neither Probe nor Hold retains the
// path it is given.
//
// # Hold-span state machine
//
// By default Commit settles immediately. DeferCommit arms the
// hold-span seam used by the dynamic simulator to let a payment's
// reservations persist across virtual time:
//
//	active ──Hold──▶ active ──Commit──▶ suspended ──Resume──▶ committed
//	   │                │                    │                (funds move)
//	   │                └──Abort──▶ aborted  └──Resume──▶ aborted
//	   │                        (holds released)    (a held channel closed
//	   └──Abort──▶ aborted                           mid-span: HTLC-style
//	                                                 timeout, holds released)
//
// While suspended the session is Finished from the router's point of
// view (the routing decision is made, exactly one Commit was called)
// but its funds are still locked on the network: other payments probe
// and hold against the depleted residuals until Resume settles the
// span. Resume may be called from a different goroutine than the one
// that ran the session, provided the handoff happens-before (the
// dynamic engine passes suspended sessions through a channel).
type Tx struct {
	net      *Network
	sender   topo.NodeID
	receiver topo.NodeID
	demand   float64

	rng       *rand.Rand
	rngSeed   int64
	rngSeeded bool

	finished    bool
	deferCommit bool
	suspended   bool
	holds       []holdRecord
	// spanMu guards the suspended flag's check-and-clear so a deadline
	// expiry racing a resume on the same span resolves to exactly one
	// winner (the loser sees ErrNotSuspended). All other Tx state keeps
	// the single-goroutine / happens-before contract.
	spanMu sync.Mutex

	probeMsgs      int
	probeOps       int   // distinct Probe calls
	probeLatNanos  int64 // virtual probe latency charged
	commitMsgs     int
	commitLatNanos int64 // virtual commit-phase latency charged
	feesPaid       float64

	// Working memory (see the type comment). The inline arrays are
	// sized so the Tx fits a 512-byte allocation.
	hops  []pathHop // hold records' hops, then the in-flight path
	infos []HopInfo // every Probe result
	lock  []int32   // the in-flight operation's lock order

	holdsInline [1]holdRecord
	hopsInline  [6]pathHop
	infosInline [4]HopInfo
	lockInline  [6]int32
}

// pathHop is one directed hop resolved to its channel index and
// direction.
type pathHop struct {
	idx int32
	dir int32
}

// holdRecord is one partial payment the session holds: its hops, which
// live in the session's hop arena, and the amount reserved on each.
type holdRecord struct {
	hops   []pathHop
	amount float64
}

// Begin opens a payment session for amount demand from sender to
// receiver.
func (n *Network) Begin(sender, receiver topo.NodeID, demand float64) (*Tx, error) {
	if !(demand > 0) || math.IsInf(demand, 1) {
		return nil, fmt.Errorf("pcn: demand must be positive and finite, got %v", demand)
	}
	if sender == receiver {
		return nil, fmt.Errorf("pcn: sender and receiver are both node %d", sender)
	}
	t := &Tx{net: n, sender: sender, receiver: receiver, demand: demand}
	t.holds = t.holdsInline[:0]
	t.hops = t.hopsInline[:0]
	t.infos = t.infosInline[:0]
	t.lock = t.lockInline[:0]
	return t, nil
}

// Graph returns the sender's local topology view (§3.1): connectivity
// without balances.
func (t *Tx) Graph() *topo.Graph { return t.net.graph }

// Sender returns the paying node.
func (t *Tx) Sender() topo.NodeID { return t.sender }

// Receiver returns the paid node.
func (t *Tx) Receiver() topo.NodeID { return t.receiver }

// Demand returns the payment amount.
func (t *Tx) Demand() float64 { return t.demand }

// SetRNGSeed attaches a deterministic per-payment random source to the
// session. Routers that make random choices (e.g. Flash's mice path
// order) use it when present instead of their shared generator, so a
// concurrent replay's random decisions depend only on the payment, not
// on worker scheduling. Construction is lazy: the rand.Rand (whose
// source seeds a ~5KB table) is only built if a router actually asks
// for randomness — elephants and non-random routers never pay for it.
func (t *Tx) SetRNGSeed(seed int64) { t.rng, t.rngSeed, t.rngSeeded = nil, seed, true }

// RNG returns the session's per-payment random source, or nil when none
// was attached (implements route.RandSource).
func (t *Tx) RNG() *rand.Rand {
	if t.rng == nil && t.rngSeeded {
		t.rng = rand.New(rand.NewSource(t.rngSeed))
	}
	return t.rng
}

// resolvePath checks that path starts at the sender and ends at the
// receiver, and maps every hop to its channel index and direction — one
// channel lookup per hop, which is also the check that every
// consecutive pair shares a channel. A missing channel is an
// ErrBadPath. The hops are written to the hop arena's spare space past
// its length (growing the arena if needed), so they become a record
// only if the caller then extends the arena over them.
func (t *Tx) resolvePath(path []topo.NodeID) ([]pathHop, error) {
	if len(path) < 2 || path[0] != t.sender || path[len(path)-1] != t.receiver {
		return nil, ErrBadPath
	}
	t.hops = slices.Grow(t.hops, len(path)-1)
	buf := t.hops[len(t.hops):len(t.hops)]
	for i := 0; i+1 < len(path); i++ {
		idx, d, err := t.net.dir(path[i], path[i+1])
		if err != nil {
			return nil, fmt.Errorf("%w: no channel %d-%d", ErrBadPath, path[i], path[i+1])
		}
		buf = append(buf, pathHop{idx: int32(idx), dir: int32(d)})
	}
	return buf[:len(buf):len(buf)], nil
}

// lockOrderInto writes the distinct channel indices of hops to buf in
// ascending order — the global acquisition order that makes
// multi-channel locking deadlock-free. The result reuses buf's backing
// array, which is grown to the hop count when it is too small.
func lockOrderInto(buf []int32, hops []pathHop) []int32 {
	s := slices.Grow(buf[:0], len(hops))
	for _, h := range hops {
		s = append(s, h.idx)
	}
	slices.Sort(s)
	return slices.Compact(s)
}

// lockChannels acquires the locks of the given channels; idxs must be
// ascending and duplicate-free (as produced by lockOrderInto).
func (n *Network) lockChannels(idxs []int32) {
	for _, i := range idxs {
		n.chans[i].mu.Lock()
	}
}

// unlockChannels releases locks taken by lockChannels.
func (n *Network) unlockChannels(idxs []int32) {
	for i := len(idxs) - 1; i >= 0; i-- {
		n.chans[idxs[i]].mu.Unlock()
	}
}

// Probe sends a probe along path and returns, per hop, the available
// balance and fee schedule. It costs 2·hops probe messages (the probe
// travels to the receiver and the acknowledgement returns). All on-path
// channels are read under their locks together, so the result is a
// consistent snapshot even while other payments commit concurrently.
// The result is read-only and stays valid for the session's life.
//
// Probe resolves the path in the hop arena's spare space and appends
// the result to the probe-result arena, so it allocates nothing until
// an arena outgrows its inline array.
func (t *Tx) Probe(path []topo.NodeID) ([]HopInfo, error) {
	if t.finished {
		return nil, ErrFinished
	}
	hops, err := t.resolvePath(path)
	if err != nil {
		return nil, err
	}
	m := len(t.infos)
	if m+len(hops) > cap(t.infos) {
		// Leaving the inline array, jump to infosChunk results: a mouse
		// that probes a few paths then grows its arena once, not per path.
		t.infos = slices.Grow(t.infos, max(m+len(hops), 2*cap(t.infos), infosChunk)-m)
	}
	t.infos = t.infos[:m+len(hops)]
	info := t.infos[m:len(t.infos):len(t.infos)]
	t.lock = lockOrderInto(t.lock, hops)
	t.readHops(hops, info)
	return info, nil
}

// infosChunk is the least capacity the probe-result arena grows to once
// it outgrows its inline array.
const infosChunk = 32

// readHops fills info with the probed state of every hop, read under
// the locks of t.lock together, and charges the probe's messages and
// latency.
func (t *Tx) readHops(hops []pathHop, info []HopInfo) {
	t.net.lockChannels(t.lock)
	for i, h := range hops {
		ch := &t.net.chans[h.idx]
		d := h.dir
		info[i] = HopInfo{
			Fee:        ch.fee[d],
			ReverseFee: ch.fee[1-d],
		}
		// A closed channel probes like a depleted one: zero availability
		// in both directions (the probed node reports it cannot forward).
		if !ch.closed {
			info[i].Available = ch.bal[d] - ch.held[d]
			info[i].ReverseAvailable = ch.bal[1-d] - ch.held[1-d]
		}
	}
	t.net.unlockChannels(t.lock)
	t.net.probeMessages.Add(int64(2 * len(hops)))
	t.probeMsgs += 2 * len(hops)
	t.probeOps++
	if t.net.hasLatency.Load() {
		t.probeLatNanos += hopsLatNanos(t.net, hops)
	}
}

// hopsLatNanos sums the virtual RTT of every hop — the cost of one
// protocol leg travelling the path and its acknowledgement returning.
func hopsLatNanos(n *Network, hops []pathHop) int64 {
	var lat int64
	for _, h := range hops {
		lat += n.latencyNanos(int(h.idx))
	}
	return lat
}

// LocalBalance returns the available balance of hop u→v without any
// message cost. It models knowledge a node has of its own channels
// (used by hop-by-hop schemes such as SpeedyMurmurs, where each
// forwarding node checks only its local links).
func (t *Tx) LocalBalance(u, v topo.NodeID) float64 {
	return t.net.Available(u, v)
}

// Hold reserves amount along every hop of path — the first phase of the
// two-phase commit. On success the funds are locked until Commit or
// Abort. If any hop lacks balance, nothing is reserved and
// ErrInsufficient is returned (the prototype's COMMIT_NACK + REVERSE of
// the prefix). Either way the attempt costs 2·hops commit messages.
// Feasibility check and reservation happen under the locks of all
// on-path channels, so two conflicting concurrent holds can never both
// succeed on balance only one of them can have.
func (t *Tx) Hold(path []topo.NodeID, amount float64) error {
	if t.finished {
		return ErrFinished
	}
	if !(amount > 0) || math.IsInf(amount, 1) {
		return fmt.Errorf("pcn: hold amount must be positive and finite, got %v", amount)
	}
	hops, err := t.resolvePath(path) // a record only if the hold succeeds
	if err != nil {
		return err
	}
	t.net.commitMessages.Add(int64(2 * len(hops)))
	t.commitMsgs += 2 * len(hops)
	if t.net.hasLatency.Load() {
		t.commitLatNanos += hopsLatNanos(t.net, hops) // COMMIT + COMMIT_ACK leg
	}
	t.lock = lockOrderInto(t.lock, hops)
	order := t.lock
	t.net.lockChannels(order)
	defer t.net.unlockChannels(order)
	// Phase 1a: feasibility check. A closed channel rejects like a
	// depleted one — routers already handle the capacity-failure path.
	// A hop short on free balance may still be covered by the session's
	// own earlier holds on the reverse direction (self-offset credit):
	// Commit applies holds in placement order, so by the time this hop's
	// reservation settles, the session's prior reverse-direction holds
	// have already moved their funds onto this side. This is what makes
	// the fee LP's offset allocations (paths crossing a shared channel
	// in opposite directions) holdable at all — the credit they rely on
	// is otherwise only materialised at commit time.
	for _, h := range hops {
		ch := &t.net.chans[h.idx]
		if ch.closed {
			return ErrInsufficient
		}
		if avail := ch.bal[h.dir] - ch.held[h.dir]; avail < amount-balanceEpsilon &&
			avail+t.ownHeld(h.idx, 1-h.dir) < amount-balanceEpsilon {
			return ErrInsufficient
		}
	}
	// Phase 1b: reserve.
	for _, h := range hops {
		t.net.chans[h.idx].held[h.dir] += amount
	}
	t.hops = t.hops[:len(t.hops)+len(hops)]
	t.holds = append(t.holds, holdRecord{hops: hops, amount: amount})
	t.net.holdsPlaced.Add(1)
	return nil
}

// balanceEpsilon absorbs float64 rounding when a hold asks for exactly
// the probed balance.
const balanceEpsilon = 1e-9

// ownHeld sums the session's active holds on channel idx in direction
// d — the self-offset credit a later hold on the opposite direction
// may draw against. Sessions hold at most a handful of paths, so the
// scan is cheap and only runs when the plain feasibility check fails.
func (t *Tx) ownHeld(idx, d int32) float64 {
	total := 0.0
	for _, h := range t.holds {
		for _, ph := range h.hops {
			if ph.idx == idx && ph.dir == d {
				total += h.amount
			}
		}
	}
	return total
}

// HeldTotal returns the amount currently reserved by this session
// across all its partial payments.
func (t *Tx) HeldTotal() float64 {
	total := 0.0
	for _, h := range t.holds {
		total += h.amount
	}
	return total
}

// holdLockOrder returns the distinct channel indices across all of the
// session's holds, ascending — the acquisition order for the atomic
// commit/abort of a multi-path payment. The holds' hops lie back to
// back at the start of the hop arena, so this is their lock order.
func (t *Tx) holdLockOrder() []int32 {
	t.lock = lockOrderInto(t.lock, t.hops)
	return t.lock
}

// Commit finalises all held partial payments atomically: every hop u→v
// moves the held amount from bal(u→v) to bal(v→u), exactly the
// prototype's CONFIRM_ACK processing. All channels touched by any hold
// are locked together (in the global ascending order), so concurrent
// observers see either none or all of the payment's transfers. Fees for
// every hop are accounted in FeesPaid. Commit with nothing held is an
// error.
//
// After DeferCommit, Commit instead records the decision and leaves
// the session suspended with its funds still locked; Resume settles
// the span later. See the hold-span state machine on Tx.
func (t *Tx) Commit() error {
	if t.finished {
		return ErrFinished
	}
	if len(t.holds) == 0 {
		return errors.New("pcn: nothing held to commit")
	}
	if t.deferCommit {
		t.spanMu.Lock()
		t.suspended = true
		t.spanMu.Unlock()
		t.finished = true // the routing decision is made; only Resume or Expire may follow
		return nil
	}
	order := t.holdLockOrder()
	t.net.lockChannels(order)
	defer t.net.unlockChannels(order)
	t.applyCommitLocked()
	t.finished = true
	return nil
}

// applyCommitLocked moves every held amount and accounts the CONFIRM
// messages and fees. Callers must hold the locks of holdLockOrder().
// Holds are applied strictly in placement order: a hold that drew
// self-offset credit from an earlier reverse-direction hold (see Hold)
// is only sound because its creditor settles first.
func (t *Tx) applyCommitLocked() {
	t.net.holdsCommitted.Add(int64(len(t.holds)))
	if t.net.hasLatency.Load() {
		t.commitLatNanos += t.settleLatNanos() // CONFIRM legs, concurrent across paths
	}
	for _, h := range t.holds {
		hops := len(h.hops)
		t.net.commitMessages.Add(int64(2 * hops)) // CONFIRM + CONFIRM_ACK
		t.commitMsgs += 2 * hops
		for _, ph := range h.hops {
			ch := &t.net.chans[ph.idx]
			d := ph.dir
			ch.held[d] = clampDust(ch.held[d] - h.amount)
			ch.bal[d] -= h.amount
			ch.bal[1-d] += h.amount
			if ch.bal[d] < 0 {
				// Holds guarantee this cannot happen; clamp rounding dust.
				ch.bal[1-d] += ch.bal[d]
				ch.bal[d] = 0
			}
			t.feesPaid += ch.fee[d].Fee(h.amount)
		}
	}
}

// Abort releases all holds without moving any balance — the prototype's
// REVERSE path.
func (t *Tx) Abort() error {
	if t.finished {
		return ErrFinished
	}
	order := t.holdLockOrder()
	t.net.lockChannels(order)
	defer t.net.unlockChannels(order)
	t.releaseHoldsLocked()
	t.finished = true
	return nil
}

// releaseHoldsLocked returns every reservation and accounts the
// REVERSE messages. Callers must hold the locks of holdLockOrder().
func (t *Tx) releaseHoldsLocked() {
	t.net.holdsAborted.Add(int64(len(t.holds)))
	if t.net.hasLatency.Load() {
		t.commitLatNanos += t.settleLatNanos() // REVERSE legs, concurrent across paths
	}
	for _, h := range t.holds {
		hops := len(h.hops)
		t.net.commitMessages.Add(int64(2 * hops)) // REVERSE + REVERSE_ACK
		t.commitMsgs += 2 * hops
		for _, ph := range h.hops {
			ch := &t.net.chans[ph.idx]
			ch.held[ph.dir] = clampDust(ch.held[ph.dir] - h.amount)
		}
	}
}

// DeferCommit arms the hold-span seam: the next Commit suspends the
// session — funds stay locked on the network — instead of settling,
// and Resume (or Expire, at a deadline) finishes the job later. Abort
// is unaffected: a failed payment releases its holds immediately.
// Routers never see the seam; the harness that armed it owns the
// Resume or Expire call.
func (t *Tx) DeferCommit() { t.deferCommit = true }

// Suspended reports whether the session sits between a deferred Commit
// and its Resume (or Expire), with funds still locked on the network.
func (t *Tx) Suspended() bool {
	t.spanMu.Lock()
	defer t.spanMu.Unlock()
	return t.suspended
}

// claimSpan atomically transitions the session out of the suspended
// state, returning whether the caller won the claim. Resume and Expire
// both go through it, so a deadline firing against a racing resume
// settles the span exactly once.
func (t *Tx) claimSpan() bool {
	t.spanMu.Lock()
	defer t.spanMu.Unlock()
	if !t.suspended {
		return false
	}
	t.suspended = false
	return true
}

// Resume settles a suspended session: if every held channel is still
// open the deferred commit applies (funds move, CONFIRM messages and
// fees are accounted) and Resume returns true; if any held channel was
// closed during the span the whole payment aborts HTLC-timeout style —
// every hold is released, REVERSE messages are accounted — and Resume
// returns false. Calling Resume on a session that is not suspended
// returns ErrNotSuspended.
func (t *Tx) Resume() (bool, error) {
	if !t.claimSpan() {
		return false, ErrNotSuspended
	}
	order := t.holdLockOrder()
	t.net.lockChannels(order)
	defer t.net.unlockChannels(order)
	for _, h := range t.holds {
		for _, ph := range h.hops {
			if t.net.chans[ph.idx].closed {
				t.releaseHoldsLocked()
				return false, nil
			}
		}
	}
	t.applyCommitLocked()
	return true, nil
}

// Expire tears down a suspended span at its HTLC-style deadline: every
// hold is released (REVERSE messages and settle latency are accounted)
// and the payment counts as failed. Expire and Resume race safely on a
// shared span — the suspended flag is claimed atomically, so exactly
// one of them settles the funds and the other gets ErrNotSuspended.
func (t *Tx) Expire() error {
	if !t.claimSpan() {
		return ErrNotSuspended
	}
	order := t.holdLockOrder()
	t.net.lockChannels(order)
	defer t.net.unlockChannels(order)
	t.releaseHoldsLocked()
	return nil
}

// clampDust zeroes float64 residue left by add/subtract round-off so a
// fully released channel reports exactly zero held funds.
func clampDust(v float64) float64 {
	if v < balanceEpsilon && v > -balanceEpsilon {
		return 0
	}
	return v
}

// settleLatNanos is the virtual latency of settling the session's
// holds: the CONFIRM (or REVERSE) legs of all held paths travel
// concurrently, so the cost is the max over paths, each path costing
// the sum of its hop RTTs.
func (t *Tx) settleLatNanos() int64 {
	var lat int64
	for _, h := range t.holds {
		if l := hopsLatNanos(t.net, h.hops); l > lat {
			lat = l
		}
	}
	return lat
}

// ResumeLatencyNanos returns the virtual latency a Resume (or Expire)
// of this session will charge — the concurrent settle legs over every
// held path. The dynamic engine reads it when scheduling a suspended
// span's settle event.
func (t *Tx) ResumeLatencyNanos() int64 {
	if !t.net.hasLatency.Load() {
		return 0
	}
	return t.settleLatNanos()
}

// PathLatencyNanos returns the virtual RTT sum along path in integer
// nanoseconds — what one probe of that path costs
// (route.LatencyMeter). Unknown hops count zero; without latency
// assignment it is 0 for every path, keeping the feature-off fast
// path branch-cheap.
func (t *Tx) PathLatencyNanos(path []topo.NodeID) int64 {
	if !t.net.hasLatency.Load() {
		return 0
	}
	var lat int64
	for i := 0; i+1 < len(path); i++ {
		if idx, _, err := t.net.dir(path[i], path[i+1]); err == nil {
			lat += t.net.latencyNanos(idx)
		}
	}
	return lat
}

// CreditProbeLatency subtracts nanos from the session's charged probe
// latency (route.LatencyMeter). Flash's speculative probe pipeline
// calls it after each round of several probes: the round's probes
// travel together, so its virtual cost is the slowest one, not the
// sum Probe charged — the pipeline credits the difference back.
func (t *Tx) CreditProbeLatency(nanos int64) { t.probeLatNanos -= nanos }

// ProbeLatencyNanos returns the virtual probe latency this session has
// been charged, in integer nanoseconds (0 unless the network carries
// latencies).
func (t *Tx) ProbeLatencyNanos() int64 { return t.probeLatNanos }

// CommitLatencyNanos returns the virtual commit-phase latency this
// session has been charged — COMMIT legs of every hold plus the settle
// legs once the session commits, aborts, resumes or expires.
func (t *Tx) CommitLatencyNanos() int64 { return t.commitLatNanos }

// Finished reports whether the session has been committed or aborted.
func (t *Tx) Finished() bool { return t.finished }

// ProbeMessages returns the probe messages this session has sent.
func (t *Tx) ProbeMessages() int { return t.probeMsgs }

// ProbeOps returns the number of distinct Probe calls this session has
// made — probe rounds, as opposed to the per-hop messages they cost.
func (t *Tx) ProbeOps() int { return t.probeOps }

// CommitMessages returns the commit-phase messages this session has
// sent.
func (t *Tx) CommitMessages() int { return t.commitMsgs }

// FeesPaid returns the total fees charged by intermediate channels for
// the committed partial payments. Fees are an accounting metric (the
// paper's Figure 9 reports fee-to-volume ratios); they are not deducted
// from channel balances.
func (t *Tx) FeesPaid() float64 { return t.feesPaid }

// PathsUsed returns the number of partial payments held (distinct path
// uses).
func (t *Tx) PathsUsed() int { return len(t.holds) }
