package harness

import (
	"math"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/graph"
	"repro/internal/lp"
	"repro/internal/pcn"
	"repro/internal/route"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/topo"
	"repro/internal/trace"
	"repro/internal/wire"
)

const (
	// ladderBatches is how many timed batches a ladder metric is the
	// median of.
	ladderBatches = 5
	// ladderBudget bounds one batch: the calibration pass stops adding
	// operations to the batch once it has run this long.
	ladderBudget = 40 * time.Millisecond
	// ladderPairs is how many (sender, receiver) pairs are drawn from the
	// workload's payments.
	ladderPairs = 1000
	// dust is a payment small enough that a thousand of them move no
	// balance the ladder would notice.
	dust = 1e-3
)

// timeOps times fn(0..n-1) in ladderBatches batches and returns the
// median ns and allocations per call. n ≤ ops is fixed by a
// calibration pass (which also warms caches and pools) so that a batch
// takes about ladderBudget. reset, when non-nil, runs outside the
// timer before the calibration pass and before every batch.
func timeOps(ops int, reset func(), fn func(i int)) (ns, allocs float64) {
	if ops <= 0 {
		return 0, 0
	}
	if reset != nil {
		reset()
	}
	n := 0
	for start := time.Now(); n < ops && (n == 0 || time.Since(start) < ladderBudget); n++ {
		fn(n)
	}
	var nsPer, allocsPer []float64
	var before, after runtime.MemStats
	for b := 0; b < ladderBatches; b++ {
		if reset != nil {
			reset()
		}
		runtime.ReadMemStats(&before)
		start := time.Now()
		for i := 0; i < n; i++ {
			fn(i)
		}
		wall := time.Since(start)
		runtime.ReadMemStats(&after)
		nsPer = append(nsPer, float64(wall)/float64(n))
		allocsPer = append(allocsPer, float64(after.Mallocs-before.Mallocs)/float64(n))
	}
	return stats.Median(nsPer), stats.Median(allocsPer)
}

// pairs returns up to n distinct (sender, receiver) pairs spread evenly
// through the workload's payments.
func (in *Inputs) pairs(n int) []core.Pair {
	seen := make(map[core.Pair]bool, n)
	var out []core.Pair
	step := len(in.Payments)/n + 1
	for i := 0; i < len(in.Payments) && len(out) < n; i += step {
		p := core.Pair{Sender: in.Payments[i].Sender, Receiver: in.Payments[i].Receiver}
		if !seen[p] {
			seen[p] = true
			out = append(out, p)
		}
	}
	return out
}

// sink keeps the compiler from discarding a measured call's result.
var sink any

// ladder times the public functions of the layers below the engine on
// the workload's own graph, balances and payment pairs.
func ladder(in *Inputs, values map[string]float64) {
	g := in.Graph
	net := in.NewNetwork()
	snap := net.Snapshot()
	pairs := in.pairs(ladderPairs)
	paths := make([][]topo.NodeID, len(pairs))
	for i, p := range pairs {
		paths[i] = graph.ShortestPath(g, p.Sender, p.Receiver, nil)
	}

	// trace: a fresh generator per batch, because Next's cost grows with
	// the receivers a sender has met.
	var gen *trace.Generator
	cfg := trace.DefaultConfig(in.Spec.Nodes)
	cfg.Graph, cfg.Seed = g, in.Seed
	values["trace.next_ns"], values["trace.next_allocs"] = timeOps(len(in.Payments),
		func() { gen, _ = trace.NewGenerator(cfg) },
		func(int) { sink = gen.Next() })

	// graph: point search, the mice table fill (k = M) and the
	// replacement call (k = M + 4).
	sc := graph.NewScratch()
	values["graph.bfs_ns"], _ = timeOps(len(pairs), nil, func(i int) {
		sink = sc.ShortestPath(g, pairs[i].Sender, pairs[i].Receiver, nil)
	})
	values["graph.yen4_ns"], values["graph.yen4_allocs"] = timeOps(len(pairs), nil, func(i int) {
		sink = graph.YenKSP(g, pairs[i].Sender, pairs[i].Receiver, 4)
	})
	values["graph.yen8_ns"], _ = timeOps(len(pairs), nil, func(i int) {
		sink = graph.YenKSP(g, pairs[i].Sender, pairs[i].Receiver, 8)
	})

	// lp: program (1) over K = 20 paths of the workload's first elephant.
	if prob, ok := feeSplitProblem(in, net); ok {
		values["lp.solve_ns"], _ = timeOps(1000, nil, func(int) { sink, _ = lp.Solve(prob) })
	}

	// pcn: session operations on shortest paths.
	values["pcn.begin_abort_ns"], _ = timeOps(len(pairs), nil, func(i int) {
		if tx, err := net.Begin(pairs[i].Sender, pairs[i].Receiver, dust); err == nil {
			_ = tx.Abort() // a fresh session always aborts
		}
	})
	txs := make([]*pcn.Tx, len(pairs))
	begin := func() { // fresh balances and one open session per pair
		_ = net.Restore(snap) // same network, so the snapshot fits
		for i, p := range pairs {
			txs[i], _ = net.Begin(p.Sender, p.Receiver, dust)
		}
	}
	values["pcn.probe_ns"], values["pcn.probe_allocs"] = timeOps(len(pairs), begin, func(i int) {
		sink, _ = txs[i].Probe(paths[i])
	})
	values["pcn.hold_commit_ns"], _ = timeOps(len(pairs), begin, func(i int) {
		if txs[i].Hold(paths[i], dust) == nil {
			_ = txs[i].Commit()
		}
	})

	// core: Flash.Route on prepared sessions — an unseen pair (Yen fills
	// the table), a seen pair (table hit), and the workload's elephants
	// under the elephant algorithm.
	if in.Spec.Scheme == sim.SchemeFlash {
		var mice *core.Flash
		miceCfg := core.DefaultConfig(math.Inf(1))
		miceCfg.Seed = in.Seed
		values["core.mice_miss_ns"], _ = timeOps(len(pairs),
			func() { mice = core.New(miceCfg); begin() },
			func(i int) { _ = mice.Route(txs[i]) })
		// mice now holds every pair the last batch routed; routing all
		// pairs once more makes every later Route a table hit.
		begin()
		for _, tx := range txs {
			_ = mice.Route(tx)
		}
		values["core.mice_hit_ns"], _ = timeOps(len(pairs), begin, func(i int) { _ = mice.Route(txs[i]) })

		var big []trace.Payment
		for _, p := range in.Payments {
			if p.Amount > in.Threshold && len(big) < ladderPairs {
				big = append(big, p)
			}
		}
		elephantCfg := core.DefaultConfig(0)
		elephantCfg.Seed = in.Seed
		elephants := core.New(elephantCfg)
		sessions := make([]route.Session, len(big))
		values["core.elephant_ns"], _ = timeOps(len(big),
			func() {
				_ = net.Restore(snap)
				for i, p := range big {
					sessions[i], _ = net.Begin(p.Sender, p.Receiver, p.Amount)
				}
			},
			func(i int) { _ = elephants.Route(sessions[i]) })
	}

	// event: pop the earliest of 10,000 pending events and schedule its
	// successor, the engine's steady state.
	q := event.NewQueue()
	rng := stats.NewRNG(in.Seed, 0xB010)
	for i := 0; i < 10000; i++ {
		q.Schedule(event.Event{Time: rng.Float64()})
	}
	values["event.push_pop_ns"], _ = timeOps(200000, nil, func(int) {
		e, _ := q.Pop()
		e.Time += rng.ExpFloat64()
		q.Schedule(e)
	})

	// wire: one PROBE_ACK of a 3-hop path.
	msg := &wire.Message{
		TransID: 1 << 40, Type: wire.TypeProbeAck, Path: []topo.NodeID{3, 2, 1, 0},
		Capacity: []float64{1, 2, 3}, ReverseCap: []float64{3, 2, 1}, FeeRate: []float64{.001, .002, .003},
	}
	frame, _ := wire.Encode(msg)
	values["wire.encode_ns"], _ = timeOps(200000, nil, func(int) { sink, _ = wire.Encode(msg) })
	values["wire.decode_ns"], _ = timeOps(200000, nil, func(int) { sink, _ = wire.Decode(frame[4:]) })
}

// feeSplitProblem builds the paper's program (1) as core's elephant
// routing poses it: split the first elephant payment over the K = 20
// shortest paths to minimise fees, one capacity row per directed hop.
func feeSplitProblem(in *Inputs, net *pcn.Network) (lp.Problem, bool) {
	for _, p := range in.Payments {
		if p.Amount <= in.Threshold {
			continue
		}
		paths := graph.YenKSP(in.Graph, p.Sender, p.Receiver, 20)
		if len(paths) < 2 {
			continue
		}
		prob := lp.Problem{C: make([]float64, len(paths))}
		rows := map[graph.DirEdge]int{}
		bottlenecks := 0.0
		for i, path := range paths {
			least := math.Inf(1)
			for _, e := range graph.PathEdges(path) {
				prob.C[i] += net.Fee(e.U, e.V).Rate
				row, ok := rows[e]
				if !ok {
					row = len(prob.Aub)
					rows[e] = row
					prob.Aub = append(prob.Aub, make([]float64, len(paths)))
					prob.Bub = append(prob.Bub, net.Balance(e.U, e.V))
				}
				prob.Aub[row][i] = 1
				least = math.Min(least, net.Balance(e.U, e.V))
			}
			bottlenecks += least
		}
		ones := make([]float64, len(paths))
		for i := range ones {
			ones[i] = 1
		}
		prob.Aeq, prob.Beq = [][]float64{ones}, []float64{bottlenecks / 4} // feasible, and needs several paths
		if _, err := lp.Solve(prob); err == nil {
			return prob, true
		}
	}
	return lp.Problem{}, false
}
