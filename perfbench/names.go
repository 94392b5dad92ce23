package main

// metricDef names one reported metric; BENCHMARK.json lists the same
// names, units and directions, which a test checks.
type metricDef struct {
	name, unit, better string
}

// endToEnd are the metrics an untraced run reports on every workload.
var endToEnd = []metricDef{
	{"nodes_per_s", "1/s", "higher"},
	{"efficiency", "ratio", "higher"},
	{"job_p50_ms", "ms", "lower"},
	{"job_p99_ms", "ms", "lower"},
	{"capacity_jobs_per_s", "1/s", "higher"},
	{"setup_s", "s", "lower"},
	{"max_rss_bytes", "bytes", "lower"},
}

// perLayer are the metrics a traced run reports on every workload.  A
// workload that does not exercise a layer reports its metrics as 0; the
// layer map in README.md says which workload measures which layer.
var perLayer = []metricDef{
	{"simd.self_ns_per_node", "ns", "lower"},
	{"simd.balance_ns_per_phase", "ns", "lower"},
	{"simd.lb_phases", "count", "lower"},
	{"simd.transfers", "count", "lower"},
	{"simd.cycles", "count", "lower"},
	{"synthetic.expand_ns_per_node", "ns", "lower"},
	{"synthetic.dfs_ns_per_node", "ns", "lower"},
	{"puzzle.expand_ns_per_node", "ns", "lower"},
	{"puzzle.dfs_ns_per_node", "ns", "lower"},
	{"spill.self_s", "s", "lower"},
	{"spill.us_per_roundtrip", "us", "lower"},
	{"spill.evictions", "count", "lower"},
	{"spill.faults", "count", "lower"},
	{"spill.bytes_written", "bytes", "lower"},
	{"spill.bytes_read", "bytes", "lower"},
	{"checkpoint.count", "count", "lower"},
	{"checkpoint.bytes", "bytes", "lower"},
	{"checkpoint.sink_s", "s", "lower"},
	{"server.queue_wait_ms_p50", "ms", "lower"},
	{"server.queue_wait_ms_p99", "ms", "lower"},
	{"server.run_ms_p50", "ms", "lower"},
	{"server.cache_hit_share", "share", "higher"},
	{"traffic.collapse_share", "share", "higher"},
	{"traffic.http_overhead_ms_p50", "ms", "lower"},
	{"load.late_ms_p99", "ms", "lower"},
	{"steal.rpcs_per_cycle", "count", "lower"},
	{"steal.bytes_per_cycle", "bytes", "lower"},
	{"steal.step_us", "us", "lower"},
	{"steal.flags_us", "us", "lower"},
	{"steal.transfer_us", "us", "lower"},
	{"steal.split_us", "us", "lower"},
	{"steal.absorb_us", "us", "lower"},
	{"steal.wall_over_local", "ratio", "lower"},
	{"runtime.alloc_bytes_per_node", "bytes", "lower"},
	{"runtime.gc_cycles", "count", "lower"},
	{"trace.overhead_share", "share", "lower"},
}

// complete adds every metric of defs that m lacks, as 0.
func (m metrics) complete(defs []metricDef) {
	for _, d := range defs {
		if _, ok := m[d.name]; !ok {
			m.set(d.name, 0, d.unit)
		}
	}
}
