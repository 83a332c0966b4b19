package service

import (
	"fmt"
	"log/slog"
	"strings"
	"time"

	"netloc/internal/design"
	"netloc/internal/obs"
	"netloc/internal/parallel"
	"netloc/internal/workcache"
)

// latencyBucketsMs are the upper bounds (in milliseconds) of the request
// latency histogram, spanning cache hits (sub-millisecond) to cold
// full-grid computations (tens of seconds).
var latencyBucketsMs = []float64{
	0.1, 0.25, 0.5, 1, 2.5, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000,
}

// queueWaitBucketsMs bound the engine's admission-wait histogram: most
// acquisitions are immediate (the 0 bucket), contended ones spread over
// the same range a queued request would block.
var queueWaitBucketsMs = []float64{0, 0.1, 1, 5, 25, 100, 500, 2500, 10000}

// countBlock is one /metrics block of span work counts, which the
// registry folds into monotonic counters after each computation: how
// much work the service has done, not just how many requests it served.
// A count feeds the series netloc_<name>_<key>_total, whose HELP text is
// help with the count substituted, and the JSON key <key> of the block.
type countBlock struct {
	name, help string
	counts     []string
}

// key is a count's name within its block: the name without the block's
// prefix, so congest_sims is the congest block's sims.
func (b countBlock) key(count string) string { return strings.TrimPrefix(count, b.name+"_") }

// countBlocks lists every span count /metrics reports. The temporal
// simulator's counts have a block of their own, so congestion-study load
// is visible separately from the static pipeline.
var countBlocks = []countBlock{
	{"pipeline", "Pipeline work units (%s) processed.", []string{
		"events", "peers", "packets", "packet_hops", "sim_messages", "sim_hops",
		"design_configs", "design_candidates",
	}},
	{"congest", "Temporal congestion-simulator work units (%s) processed.", []string{
		"congest_sims", "congest_messages", "congest_probes",
	}},
}

// endpointMetrics groups one endpoint's series.
type endpointMetrics struct {
	requests *obs.Counter
	errors   *obs.Counter
	latency  *obs.Histogram
}

// metricsRegistry is the server's observability state, backed by the
// shared obs.Registry so the same series serve both the JSON snapshot
// and the Prometheus text exposition at /metrics.
type metricsRegistry struct {
	reg       *obs.Registry
	endpoints map[string]*endpointMetrics

	inFlight     *obs.Gauge
	computations *obs.Counter
	cache        *workcache.LRU[[]byte]

	queueWait  *obs.Histogram
	spanCounts map[string]*obs.Counter // by count name, from countBlocks
	slowRuns   map[string]*obs.Counter
	workcache  *workcache.Cache

	// Run-event / slow-run configuration, set once by configureRuns
	// before the server starts serving.
	log     *slog.Logger
	slowRun time.Duration

	// runtime is the opt-in telemetry sampler; nil unless the server was
	// configured with a sample interval (tests stay byte-pinned).
	runtime *obs.RuntimeSampler
}

// newMetricsRegistry registers the server's series. The result-cache
// counts are read from cache's Stats; a cache miss there is any request
// that did not find its bytes resident, so it counts the LRU's misses
// and its shared waiters (which /metrics also reports as deduped).
func newMetricsRegistry(endpoints []string, cache *workcache.LRU[[]byte]) *metricsRegistry {
	reg := obs.NewRegistry()
	m := &metricsRegistry{
		reg:        reg,
		endpoints:  make(map[string]*endpointMetrics, len(endpoints)),
		cache:      cache,
		spanCounts: make(map[string]*obs.Counter),
		slowRuns:   make(map[string]*obs.Counter, len(endpoints)),
	}
	m.inFlight = reg.Gauge("netloc_http_inflight", "Requests currently being served.")
	reg.CounterFunc("netloc_cache_hits_total", "Result-cache hits.",
		func() float64 { return float64(cache.Stats().Hits) })
	reg.CounterFunc("netloc_cache_misses_total", "Result-cache misses.",
		func() float64 { s := cache.Stats(); return float64(s.Misses + s.Shared) })
	m.computations = reg.Counter("netloc_compute_executed_total", "Computations actually executed.")
	reg.CounterFunc("netloc_compute_deduped_total", "Requests served by joining an identical in-flight computation.",
		func() float64 { return float64(cache.Stats().Shared) })
	m.queueWait = reg.Histogram("netloc_engine_queue_wait_ms", "Time requests waited for a worker token.", queueWaitBucketsMs)
	for _, ep := range endpoints {
		m.endpoints[ep] = &endpointMetrics{
			requests: reg.Counter("netloc_http_requests_total", "HTTP requests by endpoint.", obs.Label{Key: "endpoint", Value: ep}),
			errors:   reg.Counter("netloc_http_errors_total", "HTTP responses with status >= 400 by endpoint.", obs.Label{Key: "endpoint", Value: ep}),
			latency:  reg.Histogram("netloc_http_request_duration_ms", "Request latency by endpoint.", latencyBucketsMs, obs.Label{Key: "endpoint", Value: ep}),
		}
		m.slowRuns[ep] = reg.Counter("netloc_slow_runs_total", "Computed runs slower than the endpoint's slow-run threshold.", obs.Label{Key: "endpoint", Value: ep})
	}
	for _, b := range countBlocks {
		for _, name := range b.counts {
			m.spanCounts[name] = reg.Counter("netloc_"+b.name+"_"+b.key(name)+"_total", fmt.Sprintf(b.help, name))
		}
	}
	return m
}

// bindEngine registers the series that read live server state — the
// worker budget, the result cache, and the span ring — and installs the
// budget's queue-wait observer. Called once from New, before the server
// starts serving.
func (m *metricsRegistry) bindEngine(b *parallel.Budget, tr *obs.Tracer) {
	m.reg.GaugeFunc("netloc_engine_tokens_capacity", "Worker-token pool capacity.",
		func() float64 { return float64(b.Cap()) })
	m.reg.GaugeFunc("netloc_engine_tokens_in_use", "Worker tokens currently held.",
		func() float64 { return float64(b.InUse()) })
	m.reg.CounterFunc("netloc_engine_tokens_granted_total", "Worker tokens granted over the server's lifetime.",
		func() float64 { return float64(b.Stats().Granted) })
	m.reg.CounterFunc("netloc_engine_degraded_total", "Fan-out loops that stayed on the calling goroutine because the pool was exhausted.",
		func() float64 { return float64(b.Stats().Degraded) })
	m.reg.GaugeFunc("netloc_cache_entries", "Result-cache entries.",
		func() float64 { return float64(m.cache.Stats().Entries) })
	m.reg.CounterFunc("netloc_cache_evictions_total", "Result-cache evictions.",
		func() float64 { return float64(m.cache.Stats().Evictions) })
	m.reg.CounterFunc("netloc_runs_recorded_total", "Analysis runs recorded in the span ring.",
		func() float64 { return float64(tr.Recorded()) })
	b.SetWaitObserver(func(d time.Duration) {
		m.queueWait.Observe(float64(d) / float64(time.Millisecond))
	})
}

// bindDesignJobs registers the design-job store's live gauges and
// lifetime counters. Called once from New, next to bindEngine.
func (m *metricsRegistry) bindDesignJobs(store *design.Store) {
	m.reg.GaugeFunc("netloc_design_jobs_retained", "Design jobs currently retained (any state).",
		func() float64 { return float64(store.Stats().Retained) })
	m.reg.GaugeFunc("netloc_design_jobs_running", "Design jobs currently searching.",
		func() float64 { return float64(store.Stats().Running) })
	m.reg.CounterFunc("netloc_design_jobs_submitted_total", "Design jobs accepted over the server's lifetime.",
		func() float64 { return float64(store.Stats().Submitted) })
	m.reg.CounterFunc("netloc_design_jobs_completed_total", "Design jobs reaching a terminal state over the server's lifetime.",
		func() float64 { return float64(store.Stats().Completed) })
}

// bindWorkcache registers the workload artifact cache's effectiveness
// counters. Unlike the result cache (marshaled response bytes), this
// cache holds the expensive intermediate artifacts — generated traces
// and accumulated matrices — shared across experiments, analyses, and
// design searches. Called once from New, next to bindEngine.
func (m *metricsRegistry) bindWorkcache(c *workcache.Cache) {
	m.workcache = c
	m.reg.CounterFunc("netloc_workcache_hits_total", "Workload artifact cache hits (including singleflight waiters).",
		func() float64 { return float64(c.Stats().Hits) })
	m.reg.CounterFunc("netloc_workcache_misses_total", "Workload artifact cache misses (generations executed).",
		func() float64 { return float64(c.Stats().Misses) })
	m.reg.CounterFunc("netloc_workcache_evictions_total", "Workload artifacts evicted by the LRU bound.",
		func() float64 { return float64(c.Stats().Evictions) })
	m.reg.GaugeFunc("netloc_workcache_entries", "Workload artifacts currently cached.",
		func() float64 { return float64(c.Stats().Entries) })
}

// observeLatency records one request's latency in milliseconds.
func (e *endpointMetrics) observeLatency(d time.Duration) {
	e.latency.Observe(float64(d) / float64(time.Millisecond))
}

// configureRuns installs the run-event logger and the slow-run
// threshold (0 disables). Called once from New, before the server
// starts serving.
func (m *metricsRegistry) configureRuns(log *slog.Logger, slowRun time.Duration) {
	m.log = log
	m.slowRun = slowRun
}

// bindRuntime attaches the opt-in runtime telemetry sampler; its series
// were registered by obs.NewRuntimeSampler, this just makes the sampler
// visible to the JSON snapshot and Server.Close.
func (m *metricsRegistry) bindRuntime(s *obs.RuntimeSampler) { m.runtime = s }

// completeRun is the chokepoint every computed run passes through on
// its way out: span work counts fold into the pipeline counters, the
// canonical run event is logged, and the slow-run detector gets its
// look. Cache hits and dedup followers log their event directly (they
// have no span to absorb and cannot be slow).
func (m *metricsRegistry) completeRun(d obs.SpanData, ev obs.RunEvent) {
	m.absorbRun(d)
	m.logRun(ev)
	th := m.slowRun
	if th <= 0 || ev.DurationMS < float64(th)/float64(time.Millisecond) {
		return
	}
	if c, ok := m.slowRuns[ev.Endpoint]; ok {
		c.Inc()
	}
	if m.log != nil {
		var sb strings.Builder
		obs.WriteSummary(&sb, d)
		m.log.Warn("slow_run",
			"endpoint", ev.Endpoint,
			"run_id", ev.RunID,
			"request_id", ev.RequestID,
			"duration_ms", ev.DurationMS,
			"threshold_ms", float64(th)/float64(time.Millisecond),
			"summary", sb.String())
	}
}

// logRun emits the canonical one-line run event (no-op without a
// configured logger).
func (m *metricsRegistry) logRun(ev obs.RunEvent) { obs.LogRun(m.log, ev) }

// absorbRun folds a finished run's span work counts into their counters
// (unknown count keys are ignored).
func (m *metricsRegistry) absorbRun(d obs.SpanData) {
	totals := map[string]int64{}
	var walk func(obs.SpanData)
	walk = func(s obs.SpanData) {
		for k, v := range s.Counts {
			totals[k] += v
		}
		for _, c := range s.Children {
			walk(c)
		}
	}
	walk(d)
	for k, v := range totals {
		if c, ok := m.spanCounts[k]; ok && v > 0 {
			c.Add(v)
		}
	}
}

// histogramJSON renders a histogram the way the JSON snapshot always
// has: cumulative "le_<bound>ms" buckets plus count and mean — now
// including the +Inf bucket, so out-of-range observations are visible
// and the last bucket always equals the count.
func histogramJSON(h *obs.Histogram) map[string]any {
	s := h.Snapshot()
	buckets := map[string]int64{}
	for i, bound := range s.Bounds {
		buckets[fmt.Sprintf("le_%gms", bound)] = s.Cumulative[i]
	}
	buckets["le_+Inf"] = s.Cumulative[len(s.Bounds)]
	out := map[string]any{
		"count":   s.Count,
		"buckets": buckets,
	}
	if s.Count > 0 {
		out["mean_ms"] = s.Sum / float64(s.Count)
	}
	return out
}

// snapshot renders the whole registry as the expvar-style JSON document
// served at /metrics. The cache/compute/inflight/endpoints shape is the
// service's stable JSON surface; engine and pipeline are additive.
func (m *metricsRegistry) snapshot(engine parallel.BudgetStats) map[string]any {
	eps := map[string]any{}
	for name, ep := range m.endpoints {
		eps[name] = map[string]any{
			"requests":   ep.requests.Value(),
			"errors":     ep.errors.Value(),
			"latency_ms": histogramJSON(ep.latency),
		}
	}
	slow := map[string]any{}
	for name, c := range m.slowRuns {
		slow[name] = c.Value()
	}
	ws := m.workcache.Stats()
	cs := m.cache.Stats()
	doc := map[string]any{
		"workcache": map[string]any{
			"hits":      ws.Hits,
			"misses":    ws.Misses,
			"entries":   ws.Entries,
			"evictions": ws.Evictions,
		},
		"cache": map[string]any{
			"hits":      cs.Hits,
			"misses":    cs.Misses + cs.Shared,
			"entries":   cs.Entries,
			"evictions": cs.Evictions,
		},
		"compute": map[string]any{
			"executed": m.computations.Value(),
			"deduped":  cs.Shared,
		},
		"inflight": m.inFlight.Value(),
		"engine": map[string]any{
			"capacity":      engine.Capacity,
			"in_use":        engine.InUse,
			"granted":       engine.Granted,
			"degraded":      engine.Degraded,
			"queue_wait_ms": histogramJSON(m.queueWait),
		},
		"slow_runs": slow,
		"endpoints": eps,
	}
	for _, b := range countBlocks {
		block := map[string]any{}
		for _, name := range b.counts {
			block[b.key(name)] = m.spanCounts[name].Value()
		}
		doc[b.name] = block
	}
	if m.runtime != nil {
		// Additive: the block exists only when the sampler was opted in,
		// so default/test servers keep the historical document shape.
		doc["runtime"] = m.runtime.Snapshot()
	}
	return doc
}
