// Package event is the deterministic discrete-event core of the
// dynamic network simulator: a virtual clock, a priority queue of
// timestamped events, and an append-only log of everything that was
// applied.
//
// # Time model
//
// Time is virtual, measured in float64 seconds from the start of a run.
// Nothing in this package reads wall-clock time: every timestamp is
// computed by the caller (typically from a seeded arrival process), so
// a run's event sequence is a pure function of its inputs. Events at
// the same virtual instant are ordered by their scheduling sequence
// number — the queue stamps each pushed event with a monotonically
// increasing Seq — giving the engine a single total order. Two runs
// that schedule the same events therefore pop them identically.
//
// # Determinism
//
// The queue pops in the (Time, Seq) total order from two parts: the
// events scheduled before the first Pop (a run's churn
// schedule, known before the clock starts) are sorted once into a run
// read by a cursor, and everything scheduled later goes into a small
// binary heap; Pop takes the earlier of the two heads. Seq is unique,
// so the order is strict and the pop sequence does not depend on how
// the events are stored. The queue holds no maps and consults no
// global state, so iteration order can never leak in.
//
// The heap orders 24-byte keys, not events: a key is the time mapped
// to a word whose unsigned order is the float order (−0 and +0 are
// one instant), Seq, and the slot that holds the event until it is
// popped. Two keys compare as one 128-bit number through a borrow
// chain, without a branch. A NaN time has no place in the order, so
// Schedule panics on it, as Clock.AdvanceTo does on time that moves
// backwards.
//
// The Log records every applied event and exposes a fingerprint —
// FNV-1a over seven fields of each event, folded as 64-bit
// little-endian words — that tests compare across runs to pin
// determinism. A word's zero high bytes are folded at once, as one
// multiply by a power of the prime, which gives the byte-serial
// fold's value bit for bit.
package event

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"slices"

	"repro/internal/topo"
)

// Kind enumerates what can happen in a dynamic-network run.
type Kind uint8

const (
	// PaymentArrival is a payment entering the system (first attempt or
	// a scheduled retry).
	PaymentArrival Kind = iota
	// PaymentComplete is a payment leaving service (delivered or not).
	PaymentComplete
	// ChannelOpen activates a channel: a reopened channel or a latent
	// one funded for the first time.
	ChannelOpen
	// ChannelClose deactivates a channel; its funds freeze in place.
	ChannelClose
	// Rebalance evens a channel's two directional balances (an offchain
	// rebalancing operation such as a circular self-payment).
	Rebalance
	// DemandShift rescales the workload's payment amounts from this
	// instant on.
	DemandShift
	// FeeShift rescales a channel's fee schedules (both directions) by
	// a factor — a node repricing its channels mid-run (a fee war).
	FeeShift
	// Code 7 is retired (it logged threshold re-calibrations before
	// ControlUpdate carried them) and stays reserved: every fingerprint
	// hashes the kind code, so DeadlineExpiry and ControlUpdate keep 8
	// and 9.
	_
	// DeadlineExpiry is a held payment hitting its HTLC-style expiry
	// deadline before its commit could settle: the hold is torn down,
	// funds are released, and the attempt counts as failed. Emitted by
	// the engine itself, never by churn schedules.
	DeadlineExpiry
	// ControlUpdate records one applied control-plane decision (or the
	// cadence tick that triggers the observe/decide pass): a runtime
	// knob — threshold, per-sender threshold, probe width, retry
	// backoff — moved to a new value. The applied decisions are stamped
	// with their effective values before recording, so the fingerprint
	// covers the whole adaptive trajectory. Emitted by the engine itself,
	// never by churn schedules.
	ControlUpdate

	// NumKinds is the number of event kinds (for per-kind counters).
	NumKinds = int(ControlUpdate) + 1
)

// String names the kind for logs and tables.
func (k Kind) String() string {
	switch k {
	case PaymentArrival:
		return "arrival"
	case PaymentComplete:
		return "complete"
	case ChannelOpen:
		return "open"
	case ChannelClose:
		return "close"
	case Rebalance:
		return "rebalance"
	case DemandShift:
		return "demand-shift"
	case FeeShift:
		return "fee-shift"
	case DeadlineExpiry:
		return "deadline-expiry"
	case ControlUpdate:
		return "control-update"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Event is one scheduled occurrence. Which payload fields are
// meaningful depends on Kind:
//
//   - PaymentArrival / PaymentComplete: ID is the payment ID and
//     Attempt the retry attempt (0 = first try).
//   - ChannelOpen / ChannelClose / Rebalance: A and B are the channel
//     endpoints; for ChannelOpen, Amount > 0 funds each direction with
//     that balance (0 keeps the frozen balances).
//   - DemandShift: Amount is the new payment-amount scale factor.
//   - FeeShift: A and B are the channel endpoints, Amount the factor
//     both directions' fee schedules are multiplied by.
//   - DeadlineExpiry: ID is the payment ID and Attempt the retry
//     attempt whose hold expired.
//   - ControlUpdate: ID is the knob code of the applied decision
//     (internal/control's Knob values; 0 marks a bare cadence tick), A
//     the sender for per-sender knobs, and Amount the knob's new
//     effective value.
type Event struct {
	Time float64 // virtual seconds
	Seq  uint64  // stamped by Queue.Schedule; total-order tie-break
	Kind Kind

	ID      int64
	Attempt int
	A, B    topo.NodeID
	Amount  float64
}

// key is an event's place in the queue's (Time, Seq) order and the
// slot that holds its payload. t and seq compare as one 128-bit number
// with t the high word, so a key is 24 bytes where an Event is 56.
type key struct {
	t, seq uint64
	slot   int
}

// orderBits maps a time to a word whose unsigned order is the float
// order: a non-negative time gains the sign bit and a negative one is
// negated, so −0 and +0 both map to 1<<63. NaN has no place in the
// order, and Schedule rejects it.
func orderBits(t float64) uint64 {
	b := math.Float64bits(t)
	neg := uint64(int64(b) >> 63) // all ones for a negative time
	return (b ^ neg) - neg + (^neg & (1 << 63))
}

// less is 1 if a precedes b and 0 otherwise: the borrow out of the
// 128-bit subtraction a − b. It has no branch, so the heap's child
// comparisons, which no predictor can guess, cost no mispredictions.
func less(a, b key) uint64 {
	_, borrow := bits.Sub64(a.seq, b.seq, 0)
	_, borrow = bits.Sub64(a.t, b.t, borrow)
	return borrow
}

// Queue is a priority queue of events ordered by (Time, Seq). The
// zero value is an empty, ready-to-use queue; NewQueue exists for
// call-site readability.
//
// Events scheduled before the first Pop are sorted once into
// run and consumed through the next cursor; later events go into heap.
// A simulation schedules its whole churn schedule up front (15,000
// events on a busy run) but keeps only a few hundred events of its own
// pending, so the heap stays small and never sifts through the
// schedule. The heap moves keys; each payload stays in its slot until
// it is popped. Every slot is either named by a key in heap or free,
// and the free ones are kept, last freed first, in the keys' spare
// capacity: heap[len(heap):len(slots)].
type Queue struct {
	run     []Event // sorted once on the first Pop; run[next:] pending
	next    int
	started bool    // a Pop has happened: Schedule feeds heap
	heap    []key   // binary min-heap of the events scheduled after the start
	slots   []Event // the heap's payloads, by key.slot
	seq     uint64
}

// NewQueue returns an empty event queue.
func NewQueue() *Queue { return &Queue{} }

// Schedule stamps e with the next sequence number, pushes it, and
// returns the stamped event. Events may be scheduled in any time
// order; Pop yields them in (Time, Seq) order. A NaN time has no
// place in that order and panics.
func (q *Queue) Schedule(e Event) Event {
	if math.IsNaN(e.Time) {
		panic(fmt.Sprintf("event: %v scheduled at NaN time", e.Kind))
	}
	e.Seq = q.seq
	q.seq++
	if !q.started {
		q.run = append(q.run, e)
		return e
	}
	q.push(e)
	return e
}

// Pop removes and returns the earliest event, or ok=false on empty.
func (q *Queue) Pop() (Event, bool) {
	fromRun, ok := q.head()
	if !ok {
		return Event{}, false
	}
	if fromRun {
		e := q.run[q.next]
		q.next++
		if q.next == len(q.run) {
			q.run, q.next = nil, 0 // release the schedule's memory
		}
		return e, true
	}
	return q.slots[q.pop()], true
}

// Len returns the number of pending events.
func (q *Queue) Len() int { return len(q.run) - q.next + len(q.heap) }

// head starts the queue if it has not started yet and reports where
// the earliest pending event is: the run (fromRun) or the heap top.
func (q *Queue) head() (fromRun, ok bool) {
	if !q.started {
		q.started = true
		slices.SortFunc(q.run, func(a, b Event) int {
			return cmp.Or(cmp.Compare(a.Time, b.Time), cmp.Compare(a.Seq, b.Seq))
		})
	}
	inRun := q.next < len(q.run)
	if len(q.heap) == 0 || !inRun {
		return inRun, inRun || len(q.heap) > 0
	}
	r := q.run[q.next]
	return less(key{t: orderBits(r.Time), seq: r.Seq}, q.heap[0]) == 1, true
}

// push stores e in a free slot, or a new one, and adds its key to the
// heap, moving the hole up from the new leaf instead of swapping at
// every level.
func (q *Queue) push(e Event) {
	n := len(q.heap)
	if n == len(q.slots) {
		if n == cap(q.slots) { // both arrays grow in one step, from 64 events
			q.slots = slices.Grow(q.slots, max(n, 64))
			q.heap = slices.Grow(q.heap, cap(q.slots)-n)
		}
		q.slots = append(q.slots, e)
		q.heap = append(q.heap, key{slot: n})
	} else {
		q.heap = q.heap[:n+1] // heap[n] names the last freed slot
		q.slots[q.heap[n].slot] = e
	}
	h := q.heap
	k := key{orderBits(e.Time), e.Seq, h[n].slot}
	i := n
	for i > 0 {
		p := (i - 1) / 2
		if less(k, h[p]) == 0 {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = k
}

// pop removes the heap's top, frees its slot and returns it; the
// payload stays there until the next push. The hole left at the root
// moves down to a leaf towards the smaller child, picked without a
// branch, and the last leaf is sifted up from there: it belongs near
// the bottom, so this takes about half the comparisons of sifting it
// down from the root.
func (q *Queue) pop() int {
	h := q.heap
	top := h[0]
	n := len(h) - 1
	last := h[n]
	i := 0
	for c := 1; c < n; c = 2*i + 1 {
		if c+1 < n {
			c += int(less(h[c+1], h[c]))
		}
		h[i] = h[c]
		i = c
	}
	for i > 0 {
		p := (i - 1) / 2
		if less(last, h[p]) == 0 {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = last
	h[n].slot = top.slot // the spare key past the heap keeps the free slot
	q.heap = h[:n]
	return top.slot
}

// Clock is the virtual clock: it only moves forward, driven by the
// timestamps of popped events.
type Clock struct {
	now float64
}

// AdvanceTo moves the clock to t. Moving backwards is an engine bug
// (the queue yields events in time order) and panics.
func (c *Clock) AdvanceTo(t float64) {
	if t < c.now {
		panic(fmt.Sprintf("event: clock moved backwards: %v -> %v", c.now, t))
	}
	c.now = t
}

// Log records applied events: per-kind counts and an incremental
// fingerprint are always maintained; the full entry list only when
// Retain is set (long runs fingerprint in O(1) memory). It backs the
// determinism guarantee: two runs with the same seed must produce
// fingerprint-identical logs.
type Log struct {
	// Retain keeps every recorded event in memory (Events).
	Retain bool

	entries []Event
	counts  [NumKinds]int
	hash    Hash
	n       int
}

// Record applies an event to the log.
func (l *Log) Record(e Event) {
	if l.n == 0 {
		l.hash = NewHash()
	}
	l.n++
	l.hash = l.hash.Add(e)
	if int(e.Kind) < NumKinds {
		l.counts[e.Kind]++
	}
	if l.Retain {
		l.entries = append(l.entries, e)
	}
}

// Events returns the retained events in application order (nil unless
// Retain was set). The caller must not modify the returned slice.
func (l *Log) Events() []Event { return l.entries }

// Counts returns the per-kind applied-event counts.
func (l *Log) Counts() [NumKinds]int { return l.counts }

// Fingerprint returns the order-sensitive FNV-1a digest of everything
// recorded so far.
func (l *Log) Fingerprint() uint64 {
	if l.n == 0 {
		return uint64(NewHash())
	}
	return uint64(l.hash)
}

// Hash is an incremental FNV-1a digest over applied events, for
// engines that want a determinism fingerprint without retaining the
// full log in memory.
type Hash uint64

// NewHash returns the FNV-1a offset basis.
func NewHash() Hash { return 14695981039346656037 }

// Add folds one event's raw fields into the digest and returns the new
// value. Hashing the fields directly (rather than a rendered string)
// keeps the digest off the event loop's allocation path.
func (h Hash) Add(e Event) Hash {
	v := uint64(h)
	v = fnvWord(v, math.Float64bits(e.Time))
	v = fnvWord(v, e.Seq)
	v = fnvWord(v, uint64(e.Kind))
	v = fnvWord(v, uint64(e.ID))
	v = fnvWord(v, uint64(int64(e.Attempt)))
	v = fnvWord(v, uint64(uint32(e.A))<<32|uint64(uint32(e.B)))
	v = fnvWord(v, math.Float64bits(e.Amount))
	return Hash(v)
}

// fnvWord folds one little-endian 64-bit word into an FNV-1a state.
// Folding a zero byte only multiplies by the prime, so the word's zero
// high bytes are folded at once, as one multiply by a power of it; the
// result is the byte-serial fold's, bit for bit.
func fnvWord(h, w uint64) uint64 {
	zeros := 8
	for ; w != 0; w >>= 8 {
		h ^= w & 0xFF
		h *= fnvPrime
		zeros--
	}
	return h * fnvPrimePow[zeros]
}

const fnvPrime = 1099511628211

// fnvPrimePow[k] is fnvPrime to the k, modulo 2^64.
var fnvPrimePow = func() (p [9]uint64) {
	p[0] = 1
	for k := 1; k < len(p); k++ {
		p[k] = p[k-1] * fnvPrime
	}
	return p
}()
