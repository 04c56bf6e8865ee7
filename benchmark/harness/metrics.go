package harness

// MetricDef names one metric of BENCHMARK.json. Bound is the share of
// the parent's median by which an end-to-end metric may get worse;
// per-layer metrics have none.
type MetricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Bound  float64
}

// EndToEnd are the metrics a user of the system sees, reported by the
// untraced run on every workload; none can read 0 on any of them.
// Host-time metrics are medians over the timed reps; the last three are
// pure functions of the seed at one station and are what stops a
// host-time win that quietly routes worse.
//
// A bound has to clear three times the spread of ten runs on ten
// seeds, on the workload where that spread is widest (README.md gives
// the measurements): the shared 2-vCPU box drifts by 10–20% over
// minutes, which sets the two host-time bounds; the GC's pacing moves
// peak RSS by 5–8%; and on the testbed the routers' path-order choices
// alone move messages, allocations and success ratio by 3.5% and — so
// few elephants get through — the volume ratio by 5–7%.
var EndToEnd = []MetricDef{
	{"setup_s", "s", "lower", 0.25},
	{"payments_per_s", "1/s", "higher", 0.25},
	{"allocs_per_payment", "1", "lower", 0.12},
	{"peak_rss_mb", "MB", "lower", 0.25},
	{"success_ratio", "1", "higher", 0.12},
	{"success_volume_ratio", "1", "higher", 0.25},
	{"msgs_per_payment", "1", "lower", 0.12},
}

// PerLayer are the metrics of single layers, reported by the traced
// run. A metric whose layer the workload does not run reads 0.
var PerLayer = []MetricDef{
	// Set-up phases (setup_s is their sum).
	{Name: "topo.build_s", Unit: "s", Better: "lower"},
	{Name: "trace.generate_s", Unit: "s", Better: "lower"},
	{Name: "testbed.boot_s", Unit: "s", Better: "lower"},

	// Ladder: a layer's public function timed in batches on the
	// workload's own graph and payment pairs.
	{Name: "trace.next_ns", Unit: "ns", Better: "lower"},
	{Name: "trace.next_allocs", Unit: "1", Better: "lower"},
	{Name: "graph.bfs_ns", Unit: "ns", Better: "lower"},
	{Name: "graph.yen4_ns", Unit: "ns", Better: "lower"},
	{Name: "graph.yen8_ns", Unit: "ns", Better: "lower"},
	{Name: "graph.yen4_allocs", Unit: "1", Better: "lower"},
	{Name: "lp.solve_ns", Unit: "ns", Better: "lower"},
	{Name: "pcn.begin_abort_ns", Unit: "ns", Better: "lower"},
	{Name: "pcn.probe_ns", Unit: "ns", Better: "lower"},
	{Name: "pcn.hold_commit_ns", Unit: "ns", Better: "lower"},
	{Name: "pcn.probe_allocs", Unit: "1", Better: "lower"},
	{Name: "core.mice_hit_ns", Unit: "ns", Better: "lower"},
	{Name: "core.mice_miss_ns", Unit: "ns", Better: "lower"},
	{Name: "core.elephant_ns", Unit: "ns", Better: "lower"},
	{Name: "event.push_pop_ns", Unit: "ns", Better: "lower"},
	{Name: "sim.noop_event_ns", Unit: "ns", Better: "lower"},
	{Name: "sim.dynamic_workers_speedup", Unit: "1", Better: "higher"},
	{Name: "telemetry.live_overhead_frac", Unit: "1", Better: "lower"},
	{Name: "wire.encode_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.decode_ns", Unit: "ns", Better: "lower"},
	{Name: "node.probe_rtt_us", Unit: "us", Better: "lower"},
	{Name: "node.hold_commit_rtt_us", Unit: "us", Better: "lower"},

	// Counts: read from the public results of an untraced replay.
	{Name: "pcn.probe_msgs_per_payment", Unit: "1", Better: "lower"},
	{Name: "pcn.commit_msgs_per_payment", Unit: "1", Better: "lower"},
	{Name: "pcn.holds_per_payment", Unit: "1", Better: "lower"},
	{Name: "pcn.hold_abort_ratio", Unit: "1", Better: "lower"},
	{Name: "core.fee_ratio", Unit: "1", Better: "lower"},
	{Name: "core.table_hit_ratio", Unit: "1", Better: "higher"},
	{Name: "core.paths_replaced_per_mouse", Unit: "1", Better: "lower"},
	{Name: "core.table_invalidations", Unit: "count", Better: "lower"},
	{Name: "core.table_evictions", Unit: "count", Better: "lower"},
	{Name: "core.elephant_share", Unit: "1", Better: "lower"},
	{Name: "core.mice_time_share", Unit: "1", Better: "lower"},
	{Name: "core.route_mean_us", Unit: "us", Better: "lower"},
	{Name: "sim.events_per_payment", Unit: "1", Better: "lower"},
	{Name: "sim.engine_self_share", Unit: "1", Better: "lower"},
	{Name: "sim.retries_per_payment", Unit: "1", Better: "lower"},
	{Name: "sim.span_aborts", Unit: "count", Better: "lower"},
	{Name: "sim.deadline_expiries", Unit: "count", Better: "lower"},
	{Name: "wire.msgs_per_payment", Unit: "1", Better: "lower"},
	{Name: "node.network_wait_share", Unit: "1", Better: "lower"},

	// Spans: the traced replay. The four route shares sum to 1.
	{Name: "core.route_self_share", Unit: "1", Better: "lower"},
	{Name: "pcn.probe_share", Unit: "1", Better: "lower"},
	{Name: "pcn.hold_share", Unit: "1", Better: "lower"},
	{Name: "pcn.commit_share", Unit: "1", Better: "lower"},
	{Name: "node.probe_share", Unit: "1", Better: "lower"},
	{Name: "node.hold_share", Unit: "1", Better: "lower"},
	{Name: "node.commit_share", Unit: "1", Better: "lower"},
	{Name: "pcn.probes_per_payment", Unit: "1", Better: "lower"},
	{Name: "pcn.hold_fail_ratio", Unit: "1", Better: "lower"},
	{Name: "core.mice_route_p50_us", Unit: "us", Better: "lower"},
	{Name: "core.mice_route_p95_us", Unit: "us", Better: "lower"},
	{Name: "core.elephant_route_p50_us", Unit: "us", Better: "lower"},
	{Name: "core.elephant_route_p95_us", Unit: "us", Better: "lower"},
	{Name: "testbed.payment_p50_us", Unit: "us", Better: "lower"},
	{Name: "testbed.payment_p99_us", Unit: "us", Better: "lower"},
	{Name: "bench.bytes_per_payment", Unit: "B", Better: "lower"},
	{Name: "telemetry.sink_overhead_frac", Unit: "1", Better: "lower"},
	{Name: "bench.trace_overhead_frac", Unit: "1", Better: "lower"},
}
