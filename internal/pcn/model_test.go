package pcn

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/topo"
)

// FuzzTxModel drives several open sessions on one small funded network
// through every session and churn operation — Begin, ProbeHops,
// HoldHops, Commit, DeferCommit, Abort, Resume, Expire, SetChannelOpen
// (close and reopen), FundChannel, Rebalance, ScaleFee and ReleaseTx —
// in the order the fuzzed bytes give, and after every step compares the
// network and each session with a single-threaded reference model
// (txModel). Besides agreeing value for value, they must keep:
//   - funds conserved: the network's total moves only by what
//     FundChannel adds;
//   - no balance or hold negative;
//   - no direction holding more than its balance, past the self-offset
//     credit (see Tx.Hold) of sessions that hold both of its directions;
//   - exactly one of Resume and Expire settling a suspended session,
//     the other returning ErrNotSuspended;
//   - every session Begin returns, released ones included, reading as
//     a fresh one.
//
// Its seed corpus runs under go test; fuzz it with
// go test -run='^$' -fuzz=FuzzTxModel ./internal/pcn/.
func FuzzTxModel(f *testing.F) {
	for _, seed := range txModelSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m := newTxModel(t)
		in := modelInput(data)
		for step := 0; len(in) > 0 && step < maxModelSteps; step++ {
			m.step(&in)
			m.check()
		}
	})
}

// Operations, one per leading byte (mod modelOps); each reads the
// argument bytes listed.
const (
	opBegin     = iota // slot, pair, demand
	opProbe            // slot, path
	opHold             // slot, path, amount
	opCommit           // slot
	opDefer            // slot: DeferCommit, then Commit
	opAbort            // slot
	opResume           // slot
	opExpire           // slot
	opSetOpen          // channel, open
	opFund             // channel, forward, backward
	opRebalance        // channel
	opScaleFee         // channel, factor
	opRelease          // slot
	modelOps
)

const (
	modelSlots    = 4   // sessions open at once
	maxModelSteps = 400 // operations per input
	modelEps      = 1e-9
)

// modelEdges is the fuzzed network: a five-node graph whose paths from
// 0 to 3 cross channel 1–2 in both directions (0-1-2-3 and 0-2-1-3), so
// one session can hold against its own reverse holds. Channel i is
// modelEdges[i].
var modelEdges = [][2]topo.NodeID{{0, 1}, {1, 2}, {2, 3}, {0, 2}, {1, 3}, {3, 4}, {2, 4}}

const modelNodes = 5

// modelScaleFactors are the factors opScaleFee picks from.
var modelScaleFactors = [...]float64{0.5, 2, 1.25, 3}

// modelInput is the fuzzed bytes, consumed from the front; an exhausted
// input reads zeros.
type modelInput []byte

func (in *modelInput) next() int {
	if len(*in) == 0 {
		return 0
	}
	b := (*in)[0]
	*in = (*in)[1:]
	return int(b)
}

// modelChan is the model's view of one channel, direction 0 being A→B.
type modelChan struct {
	bal, held [2]float64
	fee       [2]FeeSchedule
	closed    bool
}

// modelHop is one hop of a held path: its channel and direction.
type modelHop struct{ idx, dir int }

type modelHold struct {
	hops   []modelHop
	amount float64
}

// A modelSession is live until its Commit, Abort or settle; a deferred
// Commit leaves it suspended until Resume or Expire settles it.
type sessionState int

const (
	live sessionState = iota
	suspended
	settled
)

type modelSession struct {
	tx       *Tx
	sender   topo.NodeID
	receiver topo.NodeID
	demand   float64
	deferred bool
	state    sessionState
	holds    []modelHold

	probeMsgs, probeOps, commitMsgs int
	fees                            float64
}

// txModel is the reference model beside the network it checks.
type txModel struct {
	t        *testing.T
	net      *Network
	chans    []modelChan
	funds    float64 // the total the network must hold
	sessions [modelSlots]*modelSession
	paths    map[[2]topo.NodeID][]topo.Path // every simple path per pair

	placed, committed, aborted int64
	steps                      int
}

// newTxModel funds and prices modelEdges' network, and the model beside
// it. The balances are whole numbers and every amount a multiple of a
// quarter, so most sums are exact in float64.
func newTxModel(t *testing.T) *txModel {
	g := topo.New(modelNodes)
	for _, e := range modelEdges {
		g.MustAddChannel(e[0], e[1])
	}
	m := &txModel{t: t, net: New(g), chans: make([]modelChan, len(modelEdges)), paths: make(map[[2]topo.NodeID][]topo.Path)}
	for i, e := range modelEdges {
		c := &m.chans[i]
		c.bal = [2]float64{float64(8 + 2*i), float64(14 - i)}
		c.fee = [2]FeeSchedule{{Base: 0.01 * float64(i+1), Rate: 0.002 * float64(i+1)}, {Base: 0.02, Rate: 0.001}}
		if err := m.net.SetBalance(e[0], e[1], c.bal[0], c.bal[1]); err != nil {
			t.Fatal(err)
		}
		for d, uv := range [2][2]topo.NodeID{e, {e[1], e[0]}} {
			if err := m.net.SetFee(uv[0], uv[1], c.fee[d]); err != nil {
				t.Fatal(err)
			}
		}
		m.funds += c.bal[0] + c.bal[1]
	}
	for s := range topo.NodeID(modelNodes) {
		simplePaths(g, []topo.NodeID{s}, func(nodes []topo.NodeID) {
			pair := [2]topo.NodeID{s, nodes[len(nodes)-1]}
			m.paths[pair] = append(m.paths[pair], hopPath(g, nodes))
		})
	}
	return m
}

// simplePaths calls visit with every simple path of at least one hop
// that extends prefix.
func simplePaths(g *topo.Graph, prefix []topo.NodeID, visit func([]topo.NodeID)) {
	for _, v := range g.Neighbors(prefix[len(prefix)-1]) {
		if containsNode(prefix, v) {
			continue
		}
		p := append(prefix[:len(prefix):len(prefix)], v)
		visit(p)
		simplePaths(g, p, visit)
	}
}

func containsNode(nodes []topo.NodeID, v topo.NodeID) bool {
	for _, u := range nodes {
		if u == v {
			return true
		}
	}
	return false
}

// fatalf fails the input at the current step.
func (m *txModel) fatalf(format string, args ...any) {
	m.t.Helper()
	m.t.Fatalf("step %d: %s", m.steps, fmt.Sprintf(format, args...))
}

// step applies one operation to the network and the model.
func (m *txModel) step(in *modelInput) {
	m.steps++
	switch op := in.next() % modelOps; op {
	case opBegin:
		m.begin(in.next()%modelSlots, in.next(), in.next())
	case opSetOpen:
		idx, open := in.next()%len(m.chans), in.next()%2 == 1
		m.setOpen(idx, open)
	case opFund:
		idx, fwd, back := in.next()%len(m.chans), float64(in.next()%24), float64(in.next()%24)
		m.fund(idx, fwd, back)
	case opRebalance:
		m.rebalance(in.next() % len(m.chans))
	case opScaleFee:
		idx, factor := in.next()%len(m.chans), modelScaleFactors[in.next()%len(modelScaleFactors)]
		m.scaleFee(idx, factor)
	default:
		s := m.sessions[in.next()%modelSlots]
		if s == nil {
			return
		}
		switch op {
		case opProbe:
			m.probe(s, in.next())
		case opHold:
			m.hold(s, in.next(), float64(1+in.next()%48)/4)
		case opCommit:
			m.commit(s)
		case opDefer:
			s.tx.DeferCommit()
			if s.state == live {
				s.deferred = true
			}
			m.commit(s)
		case opAbort:
			m.abort(s)
		case opResume:
			m.resume(s)
		case opExpire:
			m.expire(s)
		case opRelease:
			m.release(s)
		}
	}
}

func (m *txModel) begin(slot, pair, demandByte int) {
	if m.sessions[slot] != nil {
		return
	}
	s := topo.NodeID(pair % modelNodes)
	r := (s + topo.NodeID(1+pair/modelNodes%(modelNodes-1))) % modelNodes
	demand := float64(1 + demandByte%32)
	tx, err := m.net.Begin(s, r, demand)
	if err != nil {
		m.fatalf("Begin(%d, %d, %v): %v", s, r, demand, err)
	}
	got := accessors(tx)
	want := txAccessors{graph: m.net.Graph(), sender: s, receiver: r, demand: demand}
	if got != want {
		m.fatalf("Begin returned a session that is not fresh:\n got %+v\nwant %+v", got, want)
	}
	m.sessions[slot] = &modelSession{tx: tx, sender: s, receiver: r, demand: demand}
}

// pathFor picks the path b names for s's pair, or, for one value in
// every len+1, a path from the receiver back to the sender, which no
// operation of s accepts.
func (m *txModel) pathFor(s *modelSession, b int) (topo.Path, bool) {
	ps := m.paths[[2]topo.NodeID{s.sender, s.receiver}]
	if i := b % (len(ps) + 1); i < len(ps) {
		return ps[i], true
	}
	return m.paths[[2]topo.NodeID{s.receiver, s.sender}][0], false
}

// hopsOf returns p's hops as channel and direction.
func hopsOf(p topo.Path) []modelHop {
	hops := make([]modelHop, p.Hops())
	for i := range hops {
		u, v, ch := p.Hop(i)
		hops[i] = modelHop{idx: ch}
		if u > v {
			hops[i].dir = 1
		}
	}
	return hops
}

func (m *txModel) probe(s *modelSession, pathByte int) {
	p, ok := m.pathFor(s, pathByte)
	info, err := s.tx.ProbeHops(p)
	switch {
	case s.state != live:
		m.wantErr("ProbeHops on a finished session", err, ErrFinished)
		return
	case !ok:
		m.wantErr("ProbeHops on another pair's path", err, ErrBadPath)
		return
	case err != nil:
		m.fatalf("ProbeHops: %v", err)
	}
	hops := hopsOf(p)
	if len(info) != len(hops) {
		m.fatalf("ProbeHops returned %d hops for a %d-hop path", len(info), len(hops))
	}
	for i, h := range hops {
		c := &m.chans[h.idx]
		want := HopInfo{Fee: c.fee[h.dir], ReverseFee: c.fee[1-h.dir]}
		if !c.closed {
			want.Available = c.bal[h.dir] - c.held[h.dir]
			want.ReverseAvailable = c.bal[1-h.dir] - c.held[1-h.dir]
		}
		if !near(info[i].Available, want.Available) || !near(info[i].ReverseAvailable, want.ReverseAvailable) ||
			!nearFee(info[i].Fee, want.Fee) || !nearFee(info[i].ReverseFee, want.ReverseFee) {
			m.fatalf("probe of hop %d (channel %d): got %+v, want %+v", i, h.idx, info[i], want)
		}
	}
	s.probeMsgs += 2 * len(hops)
	s.probeOps++
}

func (m *txModel) hold(s *modelSession, pathByte int, amount float64) {
	p, ok := m.pathFor(s, pathByte)
	err := s.tx.HoldHops(p, amount)
	switch {
	case s.state != live:
		m.wantErr("HoldHops on a finished session", err, ErrFinished)
		return
	case !ok:
		m.wantErr("HoldHops on another pair's path", err, ErrBadPath)
		return
	}
	hops := hopsOf(p)
	s.commitMsgs += 2 * len(hops)
	if !m.holdable(s, hops, amount) {
		m.wantErr(fmt.Sprintf("HoldHops of %v the model cannot hold", amount), err, ErrInsufficient)
		return
	}
	if err != nil {
		m.fatalf("HoldHops of %v on %v: %v, but the model can hold it", amount, p.Nodes(), err)
	}
	for _, h := range hops {
		m.chans[h.idx].held[h.dir] += amount
	}
	s.holds = append(s.holds, modelHold{hops: hops, amount: amount})
	m.placed++
}

// holdable is Hold's feasibility rule: every hop open, and free balance
// for amount on each, counting s's own holds on the reverse direction as
// credit.
func (m *txModel) holdable(s *modelSession, hops []modelHop, amount float64) bool {
	for _, h := range hops {
		c := &m.chans[h.idx]
		if c.closed {
			return false
		}
		free := c.bal[h.dir] - c.held[h.dir]
		if free < amount-balanceEpsilon && free+s.heldOn(h.idx, 1-h.dir) < amount-balanceEpsilon {
			return false
		}
	}
	return true
}

// heldOn sums s's holds on channel idx in direction dir.
func (s *modelSession) heldOn(idx, dir int) float64 {
	total := 0.0
	for _, h := range s.holds {
		for _, ph := range h.hops {
			if ph.idx == idx && ph.dir == dir {
				total += h.amount
			}
		}
	}
	return total
}

func (m *txModel) commit(s *modelSession) {
	err := s.tx.Commit()
	switch {
	case s.state != live:
		m.wantErr("Commit on a finished session", err, ErrFinished)
	case len(s.holds) == 0:
		if err == nil || errors.Is(err, ErrFinished) {
			m.fatalf("Commit with nothing held returned %v, want the nothing-held error", err)
		}
	case err != nil:
		m.fatalf("Commit: %v", err)
	case s.deferred:
		s.state = suspended
	default:
		m.settle(s, true)
	}
}

// settle moves (commit) or releases every hold of s, in placement order,
// and finishes it.
func (m *txModel) settle(s *modelSession, commit bool) {
	for _, h := range s.holds {
		s.commitMsgs += 2 * len(h.hops)
		for _, ph := range h.hops {
			c := &m.chans[ph.idx]
			c.held[ph.dir] -= h.amount
			if commit {
				c.bal[ph.dir] -= h.amount
				c.bal[1-ph.dir] += h.amount
				s.fees += c.fee[ph.dir].Fee(h.amount)
			}
		}
	}
	if commit {
		m.committed += int64(len(s.holds))
	} else {
		m.aborted += int64(len(s.holds))
	}
	s.state = settled
}

func (m *txModel) abort(s *modelSession) {
	err := s.tx.Abort()
	if s.state != live {
		m.wantErr("Abort on a finished session", err, ErrFinished)
		return
	}
	if err != nil {
		m.fatalf("Abort: %v", err)
	}
	m.settle(s, false)
}

// resume settles a suspended s — committing unless a held channel is
// closed — and then requires Expire to find nothing left to settle.
func (m *txModel) resume(s *modelSession) {
	ok, err := s.tx.Resume()
	if s.state != suspended {
		if ok || !errors.Is(err, ErrNotSuspended) {
			m.fatalf("Resume of a session that is not suspended = (%v, %v), want ErrNotSuspended", ok, err)
		}
		return
	}
	intact := true
	for _, h := range s.holds {
		for _, ph := range h.hops {
			intact = intact && !m.chans[ph.idx].closed
		}
	}
	if err != nil || ok != intact {
		m.fatalf("Resume = (%v, %v), want (%v, nil)", ok, err, intact)
	}
	m.settle(s, intact)
	m.wantErr("Expire after a Resume settled the span", s.tx.Expire(), ErrNotSuspended)
}

// expire releases a suspended s's holds, and then requires Resume to
// find nothing left to settle.
func (m *txModel) expire(s *modelSession) {
	err := s.tx.Expire()
	if s.state != suspended {
		m.wantErr("Expire of a session that is not suspended", err, ErrNotSuspended)
		return
	}
	if err != nil {
		m.fatalf("Expire: %v", err)
	}
	m.settle(s, false)
	ok, err := s.tx.Resume()
	if ok || !errors.Is(err, ErrNotSuspended) {
		m.fatalf("Resume after an Expire settled the span = (%v, %v), want ErrNotSuspended", ok, err)
	}
}

// release hands a settled session back to the network; ReleaseTx must
// refuse a live or suspended one, before changing anything.
func (m *txModel) release(s *modelSession) {
	if s.state != settled {
		defer func() {
			if recover() == nil {
				m.fatalf("ReleaseTx of a session in state %d did not panic", s.state)
			}
		}()
		ReleaseTx(s.tx)
		return
	}
	ReleaseTx(s.tx)
	for i, o := range m.sessions {
		if o == s {
			m.sessions[i] = nil
		}
	}
}

func (m *txModel) setOpen(idx int, open bool) {
	e := modelEdges[idx]
	if err := m.net.SetChannelOpen(e[0], e[1], open); err != nil {
		m.fatalf("SetChannelOpen: %v", err)
	}
	m.chans[idx].closed = !open
}

// fund is FundChannel: each direction's balance becomes what is asked,
// but never less than it holds.
func (m *txModel) fund(idx int, fwd, back float64) {
	e := modelEdges[idx]
	if err := m.net.FundChannel(e[0], e[1], fwd, back); err != nil {
		m.fatalf("FundChannel: %v", err)
	}
	c := &m.chans[idx]
	before := c.bal[0] + c.bal[1]
	c.bal = [2]float64{math.Max(fwd, c.held[0]), math.Max(back, c.held[1])}
	m.funds += c.bal[0] + c.bal[1] - before
}

// rebalance moves funds from an open channel's richer direction towards
// the even split, never below what that direction holds.
func (m *txModel) rebalance(idx int) {
	e := modelEdges[idx]
	moved, err := m.net.Rebalance(e[0], e[1])
	if err != nil {
		m.fatalf("Rebalance: %v", err)
	}
	c := &m.chans[idx]
	want := 0.0
	if !c.closed {
		from := 0
		if c.bal[1] > c.bal[0] {
			from = 1
		}
		floor := math.Max(c.held[from], (c.bal[0]+c.bal[1])/2)
		if move := c.bal[from] - floor; move > 0 {
			want = move
			c.bal[from] -= move
			c.bal[1-from] += move
		}
	}
	if !near(moved, want) {
		m.fatalf("Rebalance of channel %d moved %v, want %v", idx, moved, want)
	}
}

func (m *txModel) scaleFee(idx int, factor float64) {
	e := modelEdges[idx]
	if err := m.net.ScaleFee(e[0], e[1], factor); err != nil {
		m.fatalf("ScaleFee: %v", err)
	}
	for d := range m.chans[idx].fee {
		m.chans[idx].fee[d].Base *= factor
		m.chans[idx].fee[d].Rate *= factor
	}
}

// check compares the network and every open session with the model
// and asserts the invariants FuzzTxModel lists.
func (m *txModel) check() {
	credit := make([][2]float64, len(m.chans)) // self-offset credit per direction
	for _, s := range m.sessions {
		if s == nil || s.state == settled {
			continue
		}
		for i := range credit {
			for d := range 2 {
				credit[i][d] += math.Min(s.heldOn(i, d), s.heldOn(i, 1-d))
			}
		}
	}
	total := 0.0
	for i, e := range modelEdges {
		nc, c := &m.net.chans[i], &m.chans[i]
		if nc.closed != c.closed || m.net.IsChannelOpen(e[0], e[1]) == c.closed {
			m.fatalf("channel %d closed = %v, want %v", i, nc.closed, c.closed)
		}
		for d, uv := range [2][2]topo.NodeID{e, {e[1], e[0]}} {
			bal, held := nc.bal[d], nc.held[d]
			if bal < 0 || held < 0 {
				m.fatalf("channel %d direction %d: balance %v, held %v: negative", i, d, bal, held)
			}
			if !near(bal, c.bal[d]) || !near(held, c.held[d]) {
				m.fatalf("channel %d direction %d: balance %v, held %v; the model has %v, %v", i, d, bal, held, c.bal[d], c.held[d])
			}
			if held > bal+credit[i][d]+modelEps {
				m.fatalf("channel %d direction %d holds %v on a balance of %v with %v self-offset credit", i, d, held, bal, credit[i][d])
			}
			want := 0.0
			if !c.closed {
				want = c.bal[d] - c.held[d]
			}
			if got := m.net.Available(uv[0], uv[1]); !near(got, want) {
				m.fatalf("Available(%d, %d) = %v, want %v", uv[0], uv[1], got, want)
			}
		}
		total += c.bal[0] + c.bal[1]
	}
	if got := m.net.TotalFunds(); !near(got, m.funds) || !near(total, m.funds) {
		m.fatalf("funds not conserved: the network holds %v, the model's channels %v, want %v", got, total, m.funds)
	}
	if p, c, a := m.net.HoldsPlaced(), m.net.HoldsCommitted(), m.net.HoldsAborted(); p != m.placed || c != m.committed || a != m.aborted {
		m.fatalf("hold counters placed/committed/aborted %d/%d/%d, want %d/%d/%d", p, c, a, m.placed, m.committed, m.aborted)
	}
	for slot, s := range m.sessions {
		if s != nil {
			m.checkSession(slot, s)
		}
	}
}

// checkSession compares what a session reports with the model.
func (m *txModel) checkSession(slot int, s *modelSession) {
	heldTotal := 0.0
	for _, h := range s.holds {
		heldTotal += h.amount
	}
	tx := s.tx
	if tx.Finished() != (s.state != live) || tx.Suspended() != (s.state == suspended) ||
		tx.PathsUsed() != len(s.holds) || !near(tx.HeldTotal(), heldTotal) ||
		tx.ProbeMessages() != s.probeMsgs || tx.ProbeOps() != s.probeOps ||
		tx.CommitMessages() != s.commitMsgs || !near(tx.FeesPaid(), s.fees) {
		m.fatalf("session %d reads %+v; the model has state %d, %d holds of %v, %d/%d probe messages/ops, %d commit messages, fees %v",
			slot, accessors(tx), s.state, len(s.holds), heldTotal, s.probeMsgs, s.probeOps, s.commitMsgs, s.fees)
	}
}

func (m *txModel) wantErr(what string, got, want error) {
	m.t.Helper()
	if !errors.Is(got, want) {
		m.fatalf("%s returned %v, want %v", what, got, want)
	}
}

// near compares two amounts to modelEps, relative above 1.
func near(a, b float64) bool {
	return math.Abs(a-b) <= modelEps*math.Max(1, math.Abs(b))
}

func nearFee(a, b FeeSchedule) bool { return near(a.Base, b.Base) && near(a.Rate, b.Rate) }

// txModelSeeds is FuzzTxModel's seed corpus: scripted lifecycles, then
// random inputs from fixed seeds.
func txModelSeeds() [][]byte {
	const pair03 = 2 * modelNodes // sender 0, receiver 3
	seeds := [][]byte{
		// Hold and commit; hold past the balance; abort.
		{opBegin, 0, pair03, 5, opHold, 0, 0, 19, opCommit, 0,
			opBegin, 1, pair03, 5, opHold, 1, 0, 47, opHold, 1, 0, 47, opAbort, 1,
			opRelease, 0, opRelease, 1, opBegin, 0, pair03, 9, opProbe, 0, 1},
		// A deferred commit expired, then resumed; another resumed, then
		// expired; a third closed mid-span, resumed into an abort.
		{opBegin, 0, pair03, 5, opHold, 0, 0, 11, opDefer, 0, opExpire, 0, opResume, 0,
			opBegin, 1, pair03, 5, opHold, 1, 1, 11, opDefer, 1, opResume, 1, opExpire, 1,
			opBegin, 2, pair03, 5, opHold, 2, 0, 11, opDefer, 2, opSetOpen, 1, 0, opResume, 2,
			opSetOpen, 1, 1, opRelease, 2, opRelease, 1, opRelease, 0},
		// Channel 1–2's forward direction emptied, then held by one
		// session on the credit of its own reverse hold (0-2-1-3, then
		// 0-1-2-3), and churned under the suspended span.
		{opBegin, 0, pair03, 5, opFund, 1, 0, 13, opHold, 0, 3, 47, opHold, 0, 0, 27,
			opDefer, 0, opFund, 1, 0, 0, opRebalance, 1, opScaleFee, 1, 1, opResume, 0, opRelease, 0},
	}
	rng := rand.New(rand.NewSource(1))
	for range 12 {
		seed := make([]byte, 64+rng.Intn(448))
		rng.Read(seed)
		seeds = append(seeds, seed)
	}
	return seeds
}
