package core

import (
	"slices"

	"repro/internal/graph"
	"repro/internal/route"
	"repro/internal/topo"
)

// This file implements the speculative probe pipeline of elephant
// routing: Algorithm 1 with its dominant per-payment cost — k
// sequential probe round trips — collapsed to ⌈k/ProbeWorkers⌉ rounds
// of probes that travel together. The width is a virtual-time
// parameter: each round probes its candidates one after another on the
// calling goroutine, and charges the round its slowest probe.
//
// Each round:
//
//  1. Candidate stage — compute up to ProbeWorkers distinct candidate
//     shortest paths on the sender's current knowledge graph:
//     the BFS shortest path plus Yen-style edge-avoidance spur
//     deviations (graph.Yen), all filtered by the probed
//     residuals exactly as the sequential BFS is.
//  2. Probe stage — probe the candidates in index order, every one of
//     them even after one fails. Candidates whose every hop is already
//     known from an earlier round's speculation are not re-probed:
//     surplus probed knowledge is kept, so speculation is never wasted.
//     creditRoundOverlap then charges the round its slowest probe.
//  3. Merge stage — fold the probe results back in candidate-index
//     order, applying first-probe recording, bottleneck computation
//     and residual updates exactly as if the candidates had been
//     probed one at a time. Early-stop-at-demand is preserved: once
//     the accumulated flow covers the demand no further candidate
//     joins the plan, and the knowledge from already-probed surplus
//     candidates is merely recorded.
//
// Determinism: the candidate set is a pure function of the knowledge
// state (BFS and Yen tie-break deterministically), probes are reads,
// and the merge order is fixed — so for a fixed seed and a fixed
// ProbeWorkers the discovered plan is identical across runs. Different
// ProbeWorkers values legitimately discover different (still valid)
// plans, exactly as a different k would.

// creditRoundOverlap corrects the session's virtual probe-latency
// charge after one probe round: each probed candidate was billed its
// full RTT sum by Probe, but the round's probes travel together, so
// the round only advances virtual time by its slowest candidate. The
// pipeline credits Σ(probed) − max(probed) back through the
// route.LatencyMeter capability; sessions without it (or runs without
// latency, where every path sum is 0) are untouched. This is what makes
// ProbeWorkers visible in virtual-time delay metrics.
func creditRoundOverlap(s route.Session, cands []topo.Path, needsProbe []bool, errs []error) {
	lm, ok := s.(route.LatencyMeter)
	if !ok {
		return
	}
	var sum, maxLat int64
	for i, p := range cands {
		if !needsProbe[i] || errs[i] != nil {
			continue
		}
		l := lm.PathLatencyNanos(p)
		sum += l
		if l > maxLat {
			maxLat = l
		}
	}
	if credit := sum - maxLat; credit > 0 {
		lm.CreditProbeLatency(credit)
	}
}

// unknownHops reports whether any hop of p is missing from the probed
// capacity matrix. Probing records both directions of every on-path
// channel, so a path made entirely of known hops carries no new
// information and need not be re-probed.
func (ps *probedState) unknownHops(p topo.Path) bool {
	for i := range p.Hops() {
		if ps.known[ps.slot(p, i)] != ps.epoch {
			return true
		}
	}
	return false
}

// findElephantPathsPipelined is findElephantPaths with the probe
// round trips batched into rounds of up to workers ≥ 2 candidates.
func (f *Flash) findElephantPathsPipelined(s route.Session, k, workers int) *elephantPlan {
	g := s.Graph()
	ps := acquireProbedState(g)
	plan := &ps.plan
	demand := s.Demand()
	demandMet := func() bool {
		return !f.cfg.ProbeAllK && plan.flow >= demand-route.Epsilon
	}

	for len(plan.paths) < k {
		// Candidate stage. Speculate at most as many paths as the k
		// budget still allows, so the message overhead of speculation is
		// bounded by the early-stop overshoot alone.
		want := workers
		if rem := k - len(plan.paths); want > rem {
			want = rem
		}
		// The candidates are kept in the path arena beside the plan's
		// paths, so an accepted one joins the plan as it is.
		ps.cands, ps.arena = graph.Yen(g, s.Sender(), s.Receiver(), want, ps.usableCh, ps.cands[:0], ps.arena)
		cands := ps.cands
		if len(cands) == 0 {
			break
		}

		// Probe stage, results indexed by candidate. needsProbe is
		// decided before any result of the round is recorded.
		n := len(cands)
		ps.infos, ps.errs, ps.needsProbe = zeroed(ps.infos, n), zeroed(ps.errs, n), zeroed(ps.needsProbe, n)
		infos, errs, needsProbe := ps.infos, ps.errs, ps.needsProbe
		for i, p := range cands {
			if needsProbe[i] = ps.unknownHops(p); needsProbe[i] {
				infos[i], errs[i] = route.Probe(s, p)
			}
		}
		creditRoundOverlap(s, cands, needsProbe, errs)

		// Merge stage, strictly in candidate-index order.
		for i, p := range cands {
			if errs[i] != nil {
				// Mirror the sequential loop's break on a failed probe:
				// keep everything merged so far, stop discovering.
				if plan.flow >= demand-route.Epsilon {
					return plan
				}
				ps.release()
				return nil
			}
			if infos[i] != nil {
				ps.record(p, infos[i])
			}
			if demandMet() || len(plan.paths) >= k {
				// Surplus speculation: the probe already happened, so its
				// knowledge is kept (recorded above) for later rounds and
				// for the fee LP, but the path itself stays out of the
				// plan — early-stop semantics.
				continue
			}
			plan.accept(p, ps.bottleneck(p))
		}
		if demandMet() {
			return plan
		}
	}
	if plan.flow >= demand-route.Epsilon {
		return plan
	}
	ps.release() // no plan retains it
	return nil   // Algorithm 1 line 28: demand unsatisfiable with k paths
}

// zeroed returns buf resized to n zero values, reusing its array when it
// is long enough.
func zeroed[T any](buf []T, n int) []T {
	buf = slices.Grow(buf[:0], n)[:n]
	clear(buf)
	return buf
}
