// Package flash is a from-scratch Go reproduction of "Flash: Efficient
// Dynamic Routing for Offchain Networks" (Wang, Xu, Jin, Wang —
// CoNEXT 2019).
//
// Flash is a routing protocol for payment channel networks (PCNs) that
// differentiates elephant payments from mice payments: elephants run a
// probe-bounded max-flow search followed by a fee-minimising linear
// program; mice are routed from a small per-receiver table of cached
// shortest paths with probe-on-failure trial and error.
//
// This package is the public facade over the implementation packages:
//
//	internal/topo      topology model and generators (Watts–Strogatz,
//	                   Barabási–Albert, Ripple-/Lightning-like)
//	internal/graph     BFS, Yen k-shortest paths, edge-disjoint paths,
//	                   Edmonds–Karp max-flow
//	internal/pcn       channel network state: balances, holds, atomic
//	                   multi-path commit, probing
//	internal/lp        the fee program: presolve, then a bounded-variable
//	                   simplex on the shared rows
//	internal/route     the Session/Router seam shared by the simulator
//	                   and the TCP testbed
//	internal/core      the Flash router (the paper's contribution)
//	internal/baseline  Spider, SpeedyMurmurs, ShortestPath, full-probe
//	                   max-flow
//	internal/trace     calibrated synthetic workloads (Ripple/Bitcoin),
//	                   arrival processes and lazy payment streams
//	internal/event     deterministic discrete-event core: virtual
//	                   clock, event queue (the schedule known before
//	                   the clock starts as a sorted run, later events
//	                   in a heap of keys), applied-event log
//	internal/sim       simulation engine (static replay + dynamic
//	                   discrete-event runs) and experiment scenarios
//	internal/wire      the prototype's wire format (paper Table 1)
//	internal/node      TCP protocol node (probe + two-phase commit)
//	internal/testbed   local multi-process-style cluster harness
//	internal/mem       the recyclers hot paths draw working memory
//	                   from: chunked slabs and free lists
//
// # Quick start
//
//	g := flash.NewGraph(3)
//	g.MustAddChannel(0, 1)
//	g.MustAddChannel(1, 2)
//	net := flash.NewNetwork(g)
//	net.SetBalance(0, 1, 100, 100)
//	net.SetBalance(1, 2, 100, 100)
//
//	router := flash.NewFlash(flash.DefaultConfig(50)) // payments >50 are elephants
//	tx, _ := net.Begin(0, 2, 80)
//	if err := router.Route(tx); err == nil {
//	    fmt.Println("delivered 80 across", tx.PathsUsed(), "path(s)")
//	}
//
// # Concurrency model
//
// A simulator run is one goroutine: sim.DynamicOptions.Workers is c
// service stations in virtual time, and every payment routes inline on
// the event loop at any c. The layers below stay safe for sessions on
// several goroutines, which their own tests exercise; the guarantees,
// layer by layer:
//
//   - pcn: every channel carries its own lock. Operations spanning
//     several channels (path probes and holds, atomic multi-path
//     commit/abort) acquire all involved locks in ascending
//     channel-index order — one global acquisition order, so deadlock
//     is impossible and disjoint payments never contend. Holds are
//     feasibility-checked and reserved under the locks, so conflicting
//     concurrent payments can never overbook a channel.
//   - core: one mutex guards a Flash router's routing table (entries
//     keyed by sender and receiver, the slab they are made in,
//     per-sender TTL and LRU state, the path arena and the channel
//     index); counters are atomics. A payment's working memory — its
//     mice path order, an elephant's probed state, a search's
//     graph.Scratch — comes from package-level free lists
//     (mem.FreeList) shared by every router, each behind a mutex held
//     only to take or return one value; a pcn.Network keeps its
//     released sessions in one too.
//     Config.ProbeWorkers > 1 is the probe width of one elephant
//     payment: each round the router computes up to that many
//     distinct candidate paths on its probed-knowledge graph (BFS +
//     Yen-style edge-avoidance spurs), probes them in order on the
//     session's goroutine, charges the round its slowest probe in
//     virtual time, and merges the results in candidate-index order
//     exactly as if probed one round trip at a time — early exit at
//     the demand preserved, surplus probed knowledge kept. A fixed seed
//     plus a fixed ProbeWorkers replays identically, in memory and over
//     TCP. ProbeWorkers ≤ 1 is the sequential Algorithm 1 loop,
//     byte-identical to the seed engine. CLI: -probeworkers on
//     cmd/flashsim; experiments -fig latency sweeps widths 1, 2 and 4.
//   - sim: RunSimulation replays a workload one payment at a time — a
//     zero-churn, one-station run of the dynamic engine below. Every
//     run a user starts (cmd/flashsim, cmd/experiments, this package)
//     has one station, and every random routing choice draws from the
//     router's seeded stream. One scenario type (sim.Scenario) and one
//     runner (sim.Run) serve every cell: the paper's replay is the
//     ArrivalReplay arrival, and each run funds one network and runs
//     every scheme on its own copy of it.
//     cmd/experiments runs a figure's independent cells on one
//     GOMAXPROCS pool, and its tables do not depend on the pool.
//
// Determinism: topology generation, balance assignment and workload
// synthesis are pure functions of their seeds; replays of identical
// inputs give identical metrics, and the equivalence tests in
// internal/sim pin the static replay to golden metrics captured from
// the pre-concurrency engine.
//
// # Dynamic simulation
//
// Flash's thesis is that routing must track *dynamic* balances; the
// dynamic engine lets the repository express that dynamism end to end
// instead of replaying a frozen trace. sim.RunDynamic is a
// discrete-event loop over a virtual clock (float64 seconds); most
// callers reach it through cmd/flashsim:
//
//   - Payments arrive through a seeded trace.ArrivalProcess —
//     constant-rate Poisson, FlashCrowd surges, or Diurnal demand
//     drift — pulled lazily from a trace.NewStream one look-ahead event
//     at a time, so unbounded workloads cost O(1) memory.
//   - Churn events mutate the live network mid-run: ChannelClose
//     freezes a channel (probes see zero, new holds are rejected,
//     in-flight holds still settle) and invalidates the Flash
//     routing-table entries crossing it; ChannelOpen reopens or funds
//     it (latent channels, in the topology from the start, may first
//     appear mid-run); Rebalance evens a channel's directions without ever
//     dipping below outstanding holds; DemandShift rescales payment
//     amounts from that instant on (look-ahead arrival included);
//     FeeShift rescales a channel's fee schedules (the fee-war knob).
//     Shift factors are validated at schedule-ingest time.
//   - Completed payments are recorded into the aggregate Metrics and
//     into per-window time-series buckets (success ratio / volume /
//     probing per window), the view that makes flash crowds and
//     depletion visible.
//   - Failed payments can be re-routed: sim.DynamicOptions.Retries
//     (-retries on flashsim) retries with seeded jittered backoff in
//     virtual time, in dynamic runs and the static replay alike.
//   - Hold spans (DynamicOptions.Service > 0) make contention
//     deterministic: each payment splits into a hold-phase event at
//     arrival (the router decides, but the session suspends on
//     pcn.Tx's DeferCommit seam with its funds locked) and a
//     commit-phase event one exponential virtual service time later. Arrivals in
//     between probe the depleted residuals and may fail because of
//     them; a suspended payment whose channel churns away mid-span
//     aborts HTLC-timeout style (DynamicResult.SpanAborts). Service =
//     0 preserves the atomic-at-dispatch behaviour byte-for-byte.
//   - The adaptive control plane (DynamicOptions.Control, -control)
//     re-tunes Flash's runtime knobs once per metrics window. Its raw
//     threshold policy feeds every arrival amount through a streaming
//     P² quantile estimator and re-calibrates Flash's mice/elephant
//     split to the rolling 90%-mice quantile (core.Flash.SetThreshold)
//     — the paper's per-workload threshold calibration kept true under
//     demand drift. Observe passes and applied decisions are
//     ControlUpdate events carrying the effective value, so the
//     adaptive trajectory is part of the log fingerprint; off, the
//     engine is byte-identical to the fixed-threshold behaviour.
//   - The virtual latency model (Scenario.LatencyMedian,
//     -latency/-latencysigma) assigns every channel a seeded
//     log-normal RTT; probe rounds charge the sum of their hop RTTs
//     (a round of -probeworkers candidates the max over them), commit
//     and settle legs their path round trips, and each payment
//     completes at exactly arrival + probe + commit + service —
//     surfaced as p50/p95/p99 completion-latency percentiles per
//     window and as per-payment probe/commit latency in flow records.
//     A percentile is nearest-rank (the ⌈p·n⌉-th smallest delivered
//     latency), read from a per-window log-bucketed histogram within a
//     relative 2^-8 (0.39%); the run's histogram is the exact sum of
//     its windows'.
//     Hold spans gain HTLC-style deadlines (DynamicOptions.Deadline,
//     -deadline): a span that cannot settle in time expires as a
//     first-class event, releasing its funds
//     (DynamicResult.DeadlineExpiries); -grieffrac/-griefhold stage a
//     deadline-exhaustion attack against that defence. Latency off is
//     byte-identical to the latency-free engine.
//
// Time model and determinism: events are totally ordered by (virtual
// time, scheduling sequence); all randomness — arrival times, service
// times, churn schedules, backoffs, per-payment routing choices — is
// drawn from seeded streams independent of wall clock. A dynamic run
// is a pure function of its seeds at any station count: the
// applied-event log (exposed as an FNV-1a fingerprint in
// DynamicResult) and every metric are bit-identical across runs, which
// the determinism tests pin. With zero churn, zero service time, one
// station and arrivals pinned to a trace (trace.NewReplayStream), the
// dynamic engine is the static replay that RunSimulation runs, pinned
// to the seed goldens.
//
// A scenario catalogue (sim.NamedScenario: "steady", "flash-crowd",
// "depletion-rebalance", "churn", "contention", "hub-failure",
// "demand-drift", "fee-war", "latency-slo", "griefing") drives
// comparable cells across schemes; cmd/flashsim exposes it via
// -dynamic/-scenario/-arrival/-rate/-duration/-churn/-service/
// -retries/-latency/-deadline, and internal/exp prints the
// dynamic-scenario table and the latency-model cells alongside the
// paper's figures.
//
// See flash_test.go's Examples for checked programs, ARCHITECTURE.md
// for the layer stack, concurrency model, determinism guarantees and
// the hold-span state machine, and README.md for the scenario
// catalogue with reproduction commands.
package flash
