package main

// endToEnd maps each end-to-end metric to its unit. BENCHMARK.json lists
// the same names with their bounds (metrics_test.go keeps them in step).
var endToEnd = map[string]string{
	"setup_s":        "s",
	"wall_s":         "s",
	"throughput_rps": "1/s",
	"latency_p50_ms": "ms",
	"latency_p99_ms": "ms",
	"peak_rss_mb":    "MB",
}

// perLayer lists the traced run's metrics in BENCHMARK.json order. A
// metric a workload does not exercise (serve.* on the suite, plan.run_s
// on serve-scan-hot) reads 0.
var perLayer = []struct{ name, unit, better string }{
	{"operators.scan_s", "s", "lower"},
	{"operators.sort_s", "s", "lower"},
	{"operators.groupby_s", "s", "lower"},
	{"operators.join_s", "s", "lower"},
	{"operators.host_ns_per_access", "ns", "lower"},
	{"plan.run_s", "s", "lower"},
	{"workload.gen_s", "s", "lower"},
	{"engine.acquire_s", "s", "lower"},
	{"engine.place_s", "s", "lower"},
	{"engine.release_s", "s", "lower"},
	{"engine.pool_hit_ratio", "ratio", "higher"},
	{"engine.pool_hits", "count", "higher"},
	{"engine.pool_acquires", "count", "higher"},
	{"simulate.verify_s", "s", "lower"},
	{"simulate.run_s", "s", "lower"},
	{"simulate.unattributed_s", "s", "lower"},
	{"obs.collect_s", "s", "lower"},
	{"serve.submit_us_p50", "us", "lower"},
	{"serve.queue_wait_ms_p50", "ms", "lower"},
	{"serve.queue_wait_ms_p99", "ms", "lower"},
	{"serve.service_ms_p50", "ms", "lower"},
	{"serve.service_ms_p99", "ms", "lower"},
	{"cache.l1_accesses", "count", "lower"},
	{"cache.l1_misses", "count", "lower"},
	{"cache.llc_accesses", "count", "lower"},
	{"cache.llc_misses", "count", "lower"},
	{"cache.tlb_l1_misses", "count", "lower"},
	{"dram.accesses", "count", "lower"},
	{"dram.activations", "count", "lower"},
	{"dram.row_hits", "count", "higher"},
	{"noc.mesh_bytes", "B", "lower"},
	{"noc.serdes_bytes", "B", "lower"},
	{"hmc.stream_fill_bytes", "B", "lower"},
	{"hmc.permuted_writes", "count", "lower"},
	{"engine.exchange_bytes", "B", "lower"},
	{"engine.accesses", "count", "lower"},
	{"engine.sim_total_ns", "ns", "lower"},
	{"host.cpu_s", "s", "lower"},
	{"host.alloc_mb", "MB", "lower"},
	{"host.gc_cycles", "count", "lower"},
	{"host.gc_pause_ms", "ms", "lower"},
	{"host.probe_cpu_s", "s", "lower"},
	{"host.probe_mem_s", "s", "lower"},
	{"trace.overhead_ratio", "ratio", "lower"},
	{"trace.coverage_ratio", "ratio", "higher"},
}
