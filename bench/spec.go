package main

// metricDef names one metric of BENCHMARK.json. The lists below and
// BENCHMARK.json must agree; TestSpecMatchesCode checks that they do.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd lists the metrics every untraced run reports, for every
// workload. A "unit" is one full grid computation on the grid workloads
// and one replay of the request schedule on service-mix. A "request" is
// one HTTP request on service-mix; a grid unit is one request. The time
// bounds sit just above the widest run-to-run spread of unchanged code
// measured on a shared 2-vCPU host (README.md).
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "run_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "cpu_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "req_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "alloc_mb", Unit: "MB", Better: "lower", Bound: 0.03},
	{Name: "allocs_k", Unit: "k", Better: "lower", Bound: 0.03},
	{Name: "max_rss_mb", Unit: "MB", Better: "lower", Bound: 0.20},
}

// perLayer lists the metrics every traced run reports, for every
// workload; a layer the workload does not exercise reads 0.
var perLayer = []metricDef{
	{Name: "workloads.generate_s", Unit: "s", Better: "lower"},
	{Name: "workloads.generate_calls", Unit: "count", Better: "lower"},
	{Name: "workloads.events", Unit: "count", Better: "lower"},
	{Name: "comm.accumulate_s", Unit: "s", Better: "lower"},
	{Name: "comm.accumulate_allocs_k", Unit: "k", Better: "lower"},
	{Name: "comm.wire_pairs", Unit: "count", Better: "lower"},
	{Name: "metrics.mpi_metrics_s", Unit: "s", Better: "lower"},
	{Name: "topology.build_s", Unit: "s", Better: "lower"},
	{Name: "topology.builds", Unit: "count", Better: "lower"},
	{Name: "mapping.consecutive_s", Unit: "s", Better: "lower"},
	{Name: "mapping.greedy_s", Unit: "s", Better: "lower"},
	{Name: "netmodel.run_s", Unit: "s", Better: "lower"},
	{Name: "netmodel.packet_hops", Unit: "count", Better: "lower"},
	{Name: "simnet.simulate_s", Unit: "s", Better: "lower"},
	{Name: "simnet.simulate_allocs_k", Unit: "k", Better: "lower"},
	{Name: "simnet.messages", Unit: "count", Better: "lower"},
	{Name: "congest.simulate_s", Unit: "s", Better: "lower"},
	{Name: "congest.simulate_s.minimal", Unit: "s", Better: "lower"},
	{Name: "congest.simulate_s.ecmp", Unit: "s", Better: "lower"},
	{Name: "congest.simulate_s.valiant", Unit: "s", Better: "lower"},
	{Name: "congest.simulate_s.ugal", Unit: "s", Better: "lower"},
	{Name: "congest.tolerance_s", Unit: "s", Better: "lower"},
	{Name: "congest.probes", Unit: "count", Better: "lower"},
	{Name: "congest.s_per_probe", Unit: "s", Better: "lower"},
	{Name: "congest.simulate_allocs_k", Unit: "k", Better: "lower"},
	{Name: "congest.tolerance_allocs_k", Unit: "k", Better: "lower"},
	{Name: "congest.messages", Unit: "count", Better: "lower"},
	{Name: "design.configs", Unit: "count", Better: "higher"},
	{Name: "design.candidates", Unit: "count", Better: "higher"},
	{Name: "design.residual_s", Unit: "s", Better: "lower"},
	{Name: "workcache.hits", Unit: "count", Better: "higher"},
	{Name: "workcache.misses", Unit: "count", Better: "lower"},
	{Name: "workcache.hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "workcache.evictions", Unit: "count", Better: "lower"},
	{Name: "service.req_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "service.req_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "service.hit_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "service.hit_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "service.miss_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "service.miss_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "service.dedup_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "service.upload_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "service.cache_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "service.executed", Unit: "count", Better: "lower"},
	{Name: "service.deduped", Unit: "count", Better: "higher"},
	{Name: "service.evictions", Unit: "count", Better: "lower"},
	{Name: "core.analyze_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "parallel.queue_wait_ms", Unit: "ms", Better: "lower"},
	{Name: "parallel.degraded", Unit: "count", Better: "lower"},
	{Name: "trace.read_s", Unit: "s", Better: "lower"},
	{Name: "report.render_s", Unit: "s", Better: "lower"},
	{Name: "bench.coverage", Unit: "ratio", Better: "higher"},
	{Name: "bench.overhead", Unit: "ratio", Better: "lower"},
}

// unitOf returns the unit of a named metric of either list.
func unitOf(name string) string {
	for _, list := range [][]metricDef{endToEnd, perLayer} {
		for _, m := range list {
			if m.Name == name {
				return m.Unit
			}
		}
	}
	return ""
}
