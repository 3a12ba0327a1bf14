package main

// metricDef names one reported figure. The end-to-end list, with its
// bounds, is what BENCHMARK.json repeats; a test keeps the two in step.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEnd are the figures a user of esprun would see. Durations are scaled
// to the reference kernel's nominal speed and summarised over the timed
// passes; event-time figures are exact for a seed. A set of runs varies the
// seed, so a bound has to hold against the spread between seeds too: each is
// about three times the widest quartile spread ten seeds gave on any
// workload, and at most a quarter.
var endToEnd = []metricDef{
	{"setup_s", "s", lower, 0.25},
	{"throughput_kev_s", "kev/s", higher, 0.20},
	{"cpu_us_per_event", "us", lower, 0.20},
	{"peak_rss_mb", "MiB", lower, 0.15},
	{"result_delay_mean_ms", "event-ms", lower, 0.25},
	{"result_delay_p99_ms", "event-ms", lower, 0.20},
	{"peak_state", "items", lower, 0.15},
	{"alloc_kb_per_event", "KiB", lower, 0.25},
}

// perLayer are the figures of single layers, named module.metric. A layer a
// workload does not run reports 0.
var perLayer = []metricDef{
	{Name: "trace.decode_ns_per_event", Unit: "ns", Better: lower},
	{Name: "trace.decode_mb_s", Unit: "MB/s", Better: higher},
	{Name: "trace.decode_share", Unit: "ratio", Better: lower},
	{Name: "trace.allocs_per_event", Unit: "count", Better: lower},
	{Name: "trace.bytes_per_event", Unit: "B", Better: lower},

	{Name: "plan.render_ns_per_result", Unit: "ns", Better: lower},
	{Name: "plan.render_bytes_per_result", Unit: "B", Better: lower},
	{Name: "plan.render_share", Unit: "ratio", Better: lower},
	{Name: "plan.results_per_event", Unit: "count", Better: lower},

	{Name: "oostream.process_ns_per_event", Unit: "ns", Better: lower},
	{Name: "oostream.process_share", Unit: "ratio", Better: lower},
	{Name: "oostream.facade_self_ns_per_event", Unit: "ns", Better: lower},
	{Name: "oostream.compile_us", Unit: "us", Better: lower},
	{Name: "oostream.construct_us", Unit: "us", Better: lower},

	{Name: "core.process_ns_per_event", Unit: "ns", Better: lower},
	{Name: "core.share", Unit: "ratio", Better: lower},
	{Name: "core.probes_per_event", Unit: "count", Better: lower},
	{Name: "core.empty_probe_share", Unit: "ratio", Better: lower},
	{Name: "core.repairs", Unit: "count", Better: lower},
	{Name: "core.purged", Unit: "count", Better: higher},
	{Name: "core.purge_calls", Unit: "count", Better: lower},
	{Name: "core.peak_key_groups", Unit: "count", Better: lower},
	{Name: "core.allocs_per_event", Unit: "count", Better: lower},

	{Name: "ais.insert_ns_per_event", Unit: "ns", Better: lower},
	{Name: "ais.fixups_per_insert", Unit: "count", Better: lower},
	{Name: "ais.purge_ns_per_event", Unit: "ns", Better: lower},

	{Name: "kslack.buffer_ns_per_event", Unit: "ns", Better: lower},
	{Name: "kslack.peak_len", Unit: "items", Better: lower},
	{Name: "kslack.mean_hold_ms", Unit: "event-ms", Better: lower},
	{Name: "inorder.process_ns_per_event", Unit: "ns", Better: lower},
	{Name: "inorder.share", Unit: "ratio", Better: lower},

	{Name: "speculate.process_ns_per_event", Unit: "ns", Better: lower},
	{Name: "speculate.share", Unit: "ratio", Better: lower},
	{Name: "speculate.retracted_share", Unit: "ratio", Better: lower},

	{Name: "agg.self_ns_per_event", Unit: "ns", Better: lower},
	{Name: "agg.share", Unit: "ratio", Better: lower},
	{Name: "agg.windows", Unit: "count", Better: lower},
	{Name: "agg.revisions", Unit: "count", Better: lower},
	{Name: "agg.peak_elements", Unit: "items", Better: lower},
	{Name: "fiba.insert_ns", Unit: "ns", Better: lower},
	{Name: "fiba.query_ns", Unit: "ns", Better: lower},
	{Name: "fiba.purge_ns_per_elem", Unit: "ns", Better: lower},
	{Name: "fiba.height", Unit: "count", Better: lower},
	{Name: "fiba.finger_hit_share", Unit: "ratio", Better: higher},

	{Name: "driver.self_share", Unit: "ratio", Better: lower},
	{Name: "driver.unattributed_share", Unit: "ratio", Better: lower},
	{Name: "driver.trace_overhead_share", Unit: "ratio", Better: lower},
	{Name: "driver.pass_spread", Unit: "ratio", Better: lower},
	{Name: "driver.passes", Unit: "count", Better: higher},
	{Name: "driver.raw_kev_s", Unit: "kev/s", Better: higher},
	{Name: "driver.reference_ms", Unit: "ms", Better: lower},
	{Name: "driver.gomaxprocs2_kev_s", Unit: "kev/s", Better: higher},
	{Name: "driver.gc_cpu_share", Unit: "ratio", Better: lower},
	{Name: "driver.results", Unit: "count", Better: higher},
	{Name: "driver.retractions", Unit: "count", Better: lower},
	{Name: "driver.late_dropped", Unit: "count", Better: lower},
	{Name: "driver.verified_share", Unit: "ratio", Better: higher},

	{Name: "gen.paced_rate_kev_s", Unit: "kev/s", Better: higher},
	{Name: "gen.latency_p50_us", Unit: "us", Better: lower},
	{Name: "gen.latency_p99_us", Unit: "us", Better: lower},
	{Name: "gen.latency_samples", Unit: "count", Better: higher},
	{Name: "gen.lateness_p99_us", Unit: "us", Better: lower},
	{Name: "gen.backlog_growth", Unit: "ratio", Better: lower},
}
