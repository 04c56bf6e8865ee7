package core

import (
	"math"

	"repro/internal/graph"
	"repro/internal/lp"
	"repro/internal/mem"
	"repro/internal/pcn"
	"repro/internal/route"
	"repro/internal/topo"
)

// probedState is the sender's knowledge accumulated while running
// Algorithm 1: the capacity matrix C (first-probe value per directed
// hop), the residual matrix C′, and the fee schedules collected during
// probing (§3.2: "The fee information is collected during the probing
// process with the capacity information").
//
// The matrices are flat arrays indexed by directed channel slot —
// 2·channel + direction, direction 1 meaning higher endpoint to lower
// (Edge canonicalises A < B) — with an epoch-stamped known set, so a
// recycled probedState resets in O(1) and every hop query is an array
// read instead of a map probe. Values at slots whose known stamp is
// stale are garbage; every accessor checks the stamp first.
type probedState struct {
	epoch    uint32
	known    []uint32  // slot probed iff known[slot] == epoch
	capacity []float64 // C — probed capacity, set once
	residual []float64 // C′ — capacity minus flow found so far
	fees     []pcn.FeeSchedule

	// Program (1)'s constraint rows while optimizeAllocation builds it:
	// row[slot] is 1 + the row of the directed slot, 0 for a slot no row
	// holds — and for every slot between calls. rowSlots lists the slots
	// holding rows, in row order, to reset them by.
	row      []int32
	rowSlots []int

	// The payment's plan and program (1), in buffers the recycled state
	// keeps from payment to payment: plan.paths are windows of arena; the
	// program is c, aub (rows of flat), bub, aeq and beq; the split is the
	// solver's or alloc.
	plan         elephantPlan
	arena        []topo.NodeID
	solver       lp.Solver
	c, flat, bub []float64
	ones, alloc  []float64
	aub          [][]float64
	aeq          [1][]float64
	beq          [1]float64

	// A pipelined round's candidates, windows of arena, and their probe
	// results (findElephantPathsPipelined).
	cands      []topo.Path
	infos      [][]pcn.HopInfo
	errs       []error
	needsProbe []bool
}

// probedStates holds the probed states released by their payments, for
// acquireProbedState to reuse. Like graph's Scratches it is shared by
// every router in the process — a router per testbed node would
// otherwise pay for its own — and never shrinks, so it holds as many as
// were ever in use at once, each sized to the largest graph it served.
var probedStates mem.FreeList[probedState]

// acquireProbedState draws a probedState for g from the package's free
// list, or a new one, sized to g's current channel count and reset to
// all-unknown, with an empty plan.
func acquireProbedState(g *topo.Graph) *probedState {
	ps := probedStates.Get()
	if m := 2 * g.NumChannels(); len(ps.known) < m {
		ps.known = make([]uint32, m)
		ps.capacity = make([]float64, m)
		ps.residual = make([]float64, m)
		ps.fees = make([]pcn.FeeSchedule, m)
		ps.row = make([]int32, m)
		ps.epoch = 0
	}
	ps.epoch++
	if ps.epoch == 0 { // uint32 wrap: stale stamps could alias, clear once
		clear(ps.known)
		ps.epoch = 1
	}
	ps.plan = elephantPlan{paths: ps.plan.paths[:0], pathFlows: ps.plan.pathFlows[:0], state: ps}
	ps.arena = ps.arena[:0]
	return ps
}

// release returns ps to the free list, and with it the plan, its paths
// and the split: nothing may use them after.
func (ps *probedState) release() { probedStates.Put(ps) }

// slot returns the flat index of hop i of p, 2·channel + direction, the
// channel read from the path: no lookup. The index is always in range:
// every path comes from a search on the session's graph, which was
// frozen before its network was built, and acquireProbedState sized the
// arrays to 2·NumChannels() of that graph.
func (ps *probedState) slot(p topo.Path, i int) int {
	u, v, ch := p.Hop(i)
	s := 2 * ch
	if u > v {
		s++
	}
	return s
}

// usableCh implements Algorithm 1's BFS filter: unknown hops are assumed
// to have non-zero capacity ("our algorithm works without the capacity
// matrix as input by assuming each channel has non-zero capacity"),
// probed hops require positive residual. The search hands over the
// channel index it is traversing, so the filter is two array reads.
func (ps *probedState) usableCh(u, v topo.NodeID, ch int32) bool {
	s := 2 * int(ch)
	if u > v {
		s++
	}
	if ps.known[s] == ps.epoch {
		return ps.residual[s] > route.Epsilon
	}
	return true
}

// elephantPlan is the outcome of the path-finding stage: candidate
// paths, the flow each contributed during discovery, and the probed
// state backing the LP, which holds the plan (probedState.plan).
type elephantPlan struct {
	paths     []topo.Path
	pathFlows []float64 // bottleneck flow found on each path (discovery order)
	state     *probedState
	flow      float64 // total max-flow found = sum of pathFlows
}

// record stores the first-probe capacities and fees of a probed path
// (Algorithm 1 lines 17–22). Probing a hop reveals both directions of
// its channel: each on-path node knows the balance on both sides of
// its adjacent channels.
func (ps *probedState) record(p topo.Path, info []pcn.HopInfo) {
	for i := range p.Hops() {
		fwd := ps.slot(p, i)
		if ps.known[fwd] != ps.epoch {
			ps.known[fwd] = ps.epoch
			ps.capacity[fwd] = info[i].Available
			ps.residual[fwd] = info[i].Available
			ps.fees[fwd] = info[i].Fee
		}
		rev := fwd ^ 1
		if ps.known[rev] != ps.epoch {
			ps.known[rev] = ps.epoch
			ps.capacity[rev] = info[i].ReverseAvailable
			ps.residual[rev] = info[i].ReverseAvailable
			ps.fees[rev] = info[i].ReverseFee
		}
	}
}

// keep copies p into the path arena, where the plan holds it until
// release; the search scratch reuses p's array.
func (ps *probedState) keep(p topo.Path) topo.Path {
	p, ps.arena = p.AppendTo(ps.arena)
	return p
}

// bottleneck is the minimum residual along p (Algorithm 1 line 12),
// clamped at zero. Unprobed hops read as zero residual, exactly as the
// map representation's missing keys did.
func (ps *probedState) bottleneck(p topo.Path) float64 {
	c := math.Inf(1)
	for i := range p.Hops() {
		r := 0.0
		if s := ps.slot(p, i); ps.known[s] == ps.epoch {
			r = ps.residual[s]
		}
		if r < c {
			c = r
		}
	}
	if c < 0 {
		c = 0
	}
	return c
}

// accept adds p to the plan with flow c and, when c is positive,
// applies the residual update (lines 23–24): reduce along the path,
// credit the reverse direction.
//
// "It is thus possible, though rare ... that our algorithm finds a
// path but its effective capacity is zero after probing." Such a path
// still consumes one of the k iterations (line 10 adds p to P before
// probing), but contributes no flow.
func (plan *elephantPlan) accept(p topo.Path, c float64) {
	plan.paths = append(plan.paths, p)
	plan.pathFlows = append(plan.pathFlows, c)
	if c > 0 {
		ps := plan.state
		for i := range p.Hops() {
			// Probing recorded both directions of every on-path channel,
			// so the slots are known; the update mirrors lines 23–24.
			fwd := ps.slot(p, i)
			ps.residual[fwd] -= c
			ps.residual[fwd^1] += c
		}
		plan.flow += c
	}
}

// findElephantPaths is the paper's Algorithm 1 (modified Edmonds–Karp):
// up to k BFS-shortest paths on the residual knowledge graph, probing
// each discovered path to learn true capacities, stopping early once the
// accumulated flow covers the demand.
//
// The rounds are one augmenting sequence (graph.Scratch.AugmentingPath),
// each continuing the depth-first pass the round before stopped in: this
// is Edmonds–Karp, so the sender's distance to the receiver on the
// knowledge graph never shrinks — probing only closes hops, and accept
// only opens the reverse of hops on the shortest path just found — and
// what the last pass proved dead stays dead. Same paths. The first round
// starts the sequence: a fresh probedState reopens every hop.
//
// With Config.ProbeWorkers > 1 the per-path probes are batched into
// speculative rounds of that many candidates, each round charged its
// slowest probe in virtual time (see probe_pipeline.go); ProbeWorkers
// ≤ 1 takes the sequential loop below, the original algorithm. The pipeline's rounds
// are Yen runs whose spurs start from other nodes, and resume nothing.
func (f *Flash) findElephantPaths(s route.Session, k int) *elephantPlan {
	if w := f.ProbeWorkers(); w > 1 {
		return f.findElephantPathsPipelined(s, k, w)
	}
	g := s.Graph()
	ps := acquireProbedState(g)
	plan := &ps.plan
	demand := s.Demand()
	sc := graph.AcquireScratch()
	defer graph.ReleaseScratch(sc)

	for len(plan.paths) < k {
		p := sc.AugmentingPath(g, s.Sender(), s.Receiver(), ps.usableCh, len(plan.paths) == 0)
		if p.IsZero() {
			break
		}
		p = ps.keep(p) // plan retains; scratch reuses
		info, err := route.Probe(s, p)
		if err != nil {
			break
		}
		ps.record(p, info)
		plan.accept(p, ps.bottleneck(p))
		if !f.cfg.ProbeAllK && plan.flow >= demand-route.Epsilon {
			return plan
		}
	}
	if plan.flow >= demand-route.Epsilon {
		return plan
	}
	ps.release() // no plan retains it
	return nil   // Algorithm 1 line 28: demand unsatisfiable with k paths
}

// routeElephant runs the full elephant pipeline: Algorithm 1 path
// finding, then fee-minimising allocation (program (1)), then held
// partial payments and the atomic commit.
func (f *Flash) routeElephant(s route.Session) error {
	plan := f.findElephantPaths(s, f.cfg.K)
	if plan == nil {
		if err := s.Abort(); err != nil {
			return err
		}
		return route.ErrInsufficient
	}
	defer plan.state.release()

	var alloc []float64
	if f.cfg.DisableFeeOpt {
		alloc = sequentialAllocation(plan, s.Demand())
	} else {
		alloc = f.optimizeAllocation(plan, s.Demand())
	}

	// Hold each positive allocation, strictly in discovery order — the
	// LP-aware order. The fee LP may allocate flow to a path that
	// crosses a channel in reverse of an earlier path (an offset): such
	// an allocation is only feasible against the reverse-direction
	// credit the earlier path's flow creates, and Algorithm 1's residual
	// update guarantees the creditor is always discovered first. Holding
	// (and therefore committing — pcn applies holds in placement order)
	// creators before consumers lets the session's self-offset credit
	// (pcn.Tx.Hold) reserve the full allocation; reordering these holds
	// would make offset allocations fail at the hold phase even though
	// the atomic commit is sound. HoldUpTo re-probes on rejection, so
	// residual discrepancies still degrade gracefully instead of
	// failing outright.
	remaining := s.Demand()
	for i, amount := range alloc {
		if amount <= route.Epsilon || remaining <= route.Epsilon {
			continue
		}
		if amount > remaining {
			amount = remaining
		}
		held := route.HoldUpTo(s, plan.paths[i], amount)
		remaining -= held
	}
	// If rounding or offsets left a shortfall, top up along any path
	// with residual room, in discovery order.
	if remaining > route.Epsilon {
		for _, p := range plan.paths {
			if remaining <= route.Epsilon {
				break
			}
			held := route.HoldUpTo(s, p, remaining)
			remaining -= held
		}
	}
	return route.Finish(s, route.ErrInsufficient)
}

// sequentialAllocation fills paths in discovery order with the flow each
// contributed, stopping when the demand is met — the paper's Figure 9
// baseline ("the paths are used sequentially as they are found by our
// modified Edmonds-Karp algorithm until the demand is met"). The split
// is the probed state's alloc buffer.
func sequentialAllocation(plan *elephantPlan, demand float64) []float64 {
	ps := plan.state
	ps.alloc = append(ps.alloc[:0], make([]float64, len(plan.paths))...)
	remaining := demand
	for i, flow := range plan.pathFlows {
		if remaining <= route.Epsilon {
			break
		}
		amount := math.Min(flow, remaining)
		ps.alloc[i] = amount
		remaining -= amount
	}
	return ps.alloc
}

// optimizeAllocation solves the paper's program (1):
//
//	min  Σ_p Σ_{(u,v)∈p} a^p_{u,v}·f_{u,v}(r_p)
//	s.t. Σ_p r_p = d
//	     Σ_p r_p·a^p_{u,v} − Σ_p r_p·a^p_{v,u} ≤ C(u,v)   ∀(u,v)
//	     r_p ≥ 0
//
// For the linear fee schedules used in practice the objective reduces to
// Σ_p r_p·rate_p with rate_p the sum of hop rates, making this an LP.
// Falls back to the sequential allocation if the solver fails (which can
// only happen through numerical pathology, since the discovery flows are
// themselves a feasible point), counting it in Stats.FeeProgramFallbacks.
// The program is built in the probed state's buffers and solved by its
// lp.Solver, whose split the plan's state owns until release.
func (f *Flash) optimizeAllocation(plan *elephantPlan, demand float64) []float64 {
	ps, n := plan.state, len(plan.paths)
	// rowOf numbers the directed slots the paths use, in order of first use.
	rowOf := func(slot int) int {
		if ps.row[slot] == 0 {
			ps.rowSlots = append(ps.rowSlots, slot)
			ps.row[slot] = int32(len(ps.rowSlots))
		}
		return int(ps.row[slot]) - 1
	}
	// Objective: per-unit fee rate of each path; and the rows, one per
	// directed hop appearing on any path and per known reverse of one.
	ps.c = append(ps.c[:0], make([]float64, n)...)
	for i, p := range plan.paths {
		for j := range p.Hops() {
			fwd := ps.slot(p, j)
			if ps.known[fwd] == ps.epoch {
				ps.c[i] += ps.fees[fwd].Rate
			}
			rowOf(fwd)
			if ps.known[fwd^1] == ps.epoch {
				rowOf(fwd ^ 1)
			}
		}
	}
	// Channel constraints: +1 for paths using a hop forward and −1 for
	// paths using its reverse (offsets, per the paper), row r in
	// flat[r·n : (r+1)·n].
	rows := len(ps.rowSlots)
	ps.flat = append(ps.flat[:0], make([]float64, rows*n)...)
	flat := ps.flat
	for i, p := range plan.paths {
		for j := range p.Hops() {
			fwd := ps.slot(p, j)
			flat[rowOf(fwd)*n+i] += 1
			if ps.known[fwd^1] == ps.epoch {
				flat[rowOf(fwd^1)*n+i] -= 1
			}
		}
	}
	ps.aub, ps.bub = ps.aub[:0], ps.bub[:0]
	for r, slot := range ps.rowSlots {
		b := 0.0
		if ps.known[slot] == ps.epoch {
			b = ps.capacity[slot]
		}
		ps.aub, ps.bub = append(ps.aub, flat[r*n:(r+1)*n:(r+1)*n]), append(ps.bub, b)
		ps.row[slot] = 0
	}
	ps.rowSlots = ps.rowSlots[:0]
	for len(ps.ones) < n {
		ps.ones = append(ps.ones, 1)
	}
	ps.aeq[0], ps.beq[0] = ps.ones[:n], demand
	sol, err := ps.solver.Solve(lp.Problem{C: ps.c, Aub: ps.aub, Bub: ps.bub, Aeq: ps.aeq[:], Beq: ps.beq[:]})
	if err != nil {
		f.stats.FeeProgramFallbacks++
		return sequentialAllocation(plan, demand)
	}
	return sol.X
}
