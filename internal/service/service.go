// Package service exposes the study's experiment grid, per-workload
// analyses, topology inspection, and uploaded-trace analysis as a
// long-running HTTP JSON API. Repeated queries over the (app × scale ×
// topology × mapping) grid are served from a bounded result cache — a
// workcache.LRU, the same deduplicating store that holds the workload
// artifacts — so concurrent identical requests share one computation and
// each result is computed once, and all computation runs inside a
// worker pool bounded to the configured parallelism. Observability is
// built in: per-endpoint request counters and latency histograms, cache
// hit/miss counters, engine-pool gauges, and pipeline work counters live
// in one obs.Registry served at /metrics — as expvar-style JSON by
// default, or Prometheus text exposition via ?format=prom or an Accept
// header asking for text/plain. Every computation runs under a stage
// span recorded in a bounded ring served at /v1/debug/runs. cmd/netlocd
// is the daemon wrapping this package.
//
// Endpoints:
//
//	GET  /healthz                   liveness probe
//	GET  /metrics                   observability snapshot (JSON or
//	                                Prometheus text via ?format=prom)
//	GET  /v1/experiments            list experiments with descriptions
//	GET  /v1/experiments/{name}     run one experiment (table1..4, fig1,
//	                                fig3..5, sim, congestion, score,
//	                                claims); query
//	                                params: app, ranks, rank, minranks,
//	                                coverage, strategy, maxranks
//	GET  /v1/analyze                analyze one workload configuration;
//	                                query params: app, ranks, topo,
//	                                mapping, coverage, strategy
//	GET  /v1/topologies             inspect the Table 2 configurations
//	                                for a rank count; query param: ranks
//	POST /v1/traces/analyze         analyze an uploaded binary .nlt trace
//	POST /v1/design                 synchronous topology design search
//	                                (JSON body: app, ranks, families,
//	                                mappings, constraints, weights)
//	POST /v1/design/trace           design search over an uploaded .nlt
//	                                trace; constraints via query params
//	POST /v1/congestion             temporal congestion study over a
//	                                workload × topology × routing-policy
//	                                grid, with latency-tolerance sweeps
//	                                (JSON body: workloads, policies,
//	                                growth_pct, max_ranks; all optional)
//	POST /v1/design/jobs            submit an async design search job
//	GET  /v1/design/jobs            list retained design jobs
//	GET  /v1/design/jobs/{id}       poll one job (progress, then sheet)
//	DELETE /v1/design/jobs/{id}     cancel a running job
//	GET  /v1/debug/runs             recent analysis runs with their
//	                                nested stage spans (newest first);
//	                                ?n= limits the listing
//	GET  /v1/debug/runs/{id}        one recorded run by its monotonic ID
//	GET  /v1/debug/runs/{id}/trace  the run as Chrome trace-event JSON
//	                                (open in Perfetto / chrome://tracing)
package service

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"net/url"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"netloc/internal/core"
	"netloc/internal/design"
	"netloc/internal/harness"
	"netloc/internal/metrics"
	"netloc/internal/mpi"
	"netloc/internal/obs"
	"netloc/internal/parallel"
	"netloc/internal/report"
	"netloc/internal/topology"
	"netloc/internal/trace"
	"netloc/internal/workcache"
	"netloc/internal/workloads"
)

// maxBodyBytes bounds an uploaded trace (/v1/traces/analyze and
// /v1/design/trace), and maxJSONBytes a JSON request (/v1/design,
// /v1/design/jobs and /v1/congestion), which is read whole before any
// worker token is taken; a longer body answers 400.
const (
	maxBodyBytes = 64 << 20
	maxJSONBytes = 1 << 20
)

// Options configures a Server. Every server bounds uploaded traces to
// 64 MiB and JSON request bodies to 1 MiB, keeps
// design.DefaultJobCapacity design jobs and workcache.DefaultMaxEntries
// workload artifacts (generated traces, accumulated matrices and built
// topologies).
type Options struct {
	// CacheEntries bounds the LRU result cache; 256 when zero.
	CacheEntries int
	// Workers bounds concurrent trace generation/simulation;
	// GOMAXPROCS when zero.
	Workers int
	// Log, when set, enables structured request logging: one record per
	// request with its request ID, endpoint, status, and latency, plus
	// one canonical "run_complete" event per completed run (cache state,
	// analysis dims, queue wait) and "slow_run" warnings from the
	// slow-run detector. Nil disables logging (the default; tests and
	// embedders stay quiet).
	Log *slog.Logger
	// RuntimeSampleInterval, when positive, starts the runtime telemetry
	// sampler: netloc_runtime_{goroutines,heap_bytes,gc_pauses_total,
	// gc_pause_seconds} sampled on this interval and a "runtime" block
	// in the JSON /metrics document. Zero (the default) registers
	// nothing, keeping /metrics output byte-identical for existing
	// consumers and tests. Stop the sampler with Close.
	RuntimeSampleInterval time.Duration
	// SlowRunThreshold flags computed runs slower than this duration
	// (queue wait included): each one bumps
	// netloc_slow_runs_total{endpoint} and, with Log set, logs the run's
	// per-stage span summary. Zero disables detection.
	SlowRunThreshold time.Duration
	// Analysis supplies defaults for every analysis (coverage, rank
	// cap). Query parameters override coverage and strategy, and may
	// lower the cap, per request.
	Analysis core.Options
}

// Server is the analysis service: an http.Handler with a result cache,
// request deduplication, a bounded worker pool, and metrics.
//
// The pool is one parallel.Budget of Workers tokens serving two levels
// at once: each computing request holds one token (blocking admission,
// as before), and the parallel analysis engine inside a request admits
// extra workers only from the same budget's spare tokens
// (non-blocking). An idle server therefore gives one request the full
// budget, while a saturated server degrades each request to its single
// admission token instead of oversubscribing CPU.
type Server struct {
	opts      Options
	mux       *http.ServeMux
	cache     *workcache.LRU[[]byte]
	budget    *parallel.Budget
	metrics   *metricsRegistry
	tracer    *obs.Tracer
	jobs      *design.Store
	work      *workcache.Cache
	requestID atomic.Int64
}

// endpointNames are the instrumentation keys of the metrics registry.
var endpointNames = []string{
	"healthz", "metrics", "experiments", "analyze", "topologies", "traces",
	"design", "design_jobs", "congestion", "debug",
}

// New constructs a Server with the given options, filling in the
// zero-value defaults of CacheEntries and Workers.
func New(opts Options) *Server {
	if opts.CacheEntries == 0 {
		opts.CacheEntries = 256
	}
	if opts.Workers == 0 {
		opts.Workers = runtime.GOMAXPROCS(0)
	}
	cache := workcache.NewLRU[[]byte](opts.CacheEntries)
	s := &Server{
		opts:    opts,
		mux:     http.NewServeMux(),
		cache:   cache,
		budget:  parallel.NewBudget(opts.Workers),
		metrics: newMetricsRegistry(endpointNames, cache),
		tracer:  obs.NewTracer(obs.DefaultTracerRuns),
		work:    workcache.New(workcache.DefaultMaxEntries),
	}
	s.jobs = design.NewStore(design.DefaultJobCapacity)
	s.jobs.Search = s.designSearch
	s.metrics.bindEngine(s.budget, s.tracer)
	s.metrics.bindDesignJobs(s.jobs)
	s.metrics.bindWorkcache(s.work)
	s.metrics.configureRuns(opts.Log, opts.SlowRunThreshold)
	if opts.RuntimeSampleInterval > 0 {
		sampler := obs.NewRuntimeSampler(s.metrics.reg, opts.RuntimeSampleInterval)
		sampler.Start()
		s.metrics.bindRuntime(sampler)
	}
	s.mux.HandleFunc("GET /healthz", s.instrument("healthz", s.handleHealthz))
	s.mux.HandleFunc("GET /metrics", s.instrument("metrics", s.handleMetrics))
	s.mux.HandleFunc("GET /v1/experiments", s.instrument("experiments", s.handleExperimentList))
	s.mux.HandleFunc("GET /v1/experiments/{name}", s.instrument("experiments", s.handleExperiment))
	s.mux.HandleFunc("GET /v1/analyze", s.instrument("analyze", s.handleAnalyze))
	s.mux.HandleFunc("GET /v1/topologies", s.instrument("topologies", s.handleTopologies))
	s.mux.HandleFunc("POST /v1/traces/analyze", s.instrument("traces", s.handleTraceAnalyze))
	s.mux.HandleFunc("POST /v1/design", s.instrument("design", s.handleDesign))
	s.mux.HandleFunc("POST /v1/design/trace", s.instrument("design", s.handleDesignTrace))
	s.mux.HandleFunc("POST /v1/design/jobs", s.instrument("design_jobs", s.handleDesignJobSubmit))
	s.mux.HandleFunc("GET /v1/design/jobs", s.instrument("design_jobs", s.handleDesignJobList))
	s.mux.HandleFunc("GET /v1/design/jobs/{id}", s.instrument("design_jobs", s.handleDesignJobGet))
	s.mux.HandleFunc("DELETE /v1/design/jobs/{id}", s.instrument("design_jobs", s.handleDesignJobCancel))
	s.mux.HandleFunc("POST /v1/congestion", s.instrument("congestion", s.handleCongestion))
	s.mux.HandleFunc("GET /v1/debug/runs", s.instrument("debug", s.handleDebugRuns))
	s.mux.HandleFunc("GET /v1/debug/runs/{id}", s.instrument("debug", s.handleDebugRun))
	s.mux.HandleFunc("GET /v1/debug/runs/{id}/trace", s.instrument("debug", s.handleDebugRunTrace))
	return s
}

// Close releases the server's background resources (currently the
// opt-in runtime telemetry sampler). Safe to call more than once; the
// zero-configuration server has nothing to release.
func (s *Server) Close() {
	if s.metrics.runtime != nil {
		s.metrics.runtime.Stop()
	}
}

// Handler returns the service's http.Handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Options returns the server's effective configuration, with the
// zero-value defaults of CacheEntries and Workers filled in.
func (s *Server) Options() Options { return s.opts }

// ServeHTTP implements http.Handler directly.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// statusWriter records the response status for error accounting.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(status int) {
	w.status = status
	w.ResponseWriter.WriteHeader(status)
}

// reqInfo identifies the request a computation belongs to; instrument
// stores it in the request context so the cached/compute layer can
// stamp canonical run events without widening every handler signature.
type reqInfo struct {
	id       string
	endpoint string
}

type reqInfoKey struct{}

// requestInfo extracts the instrumentation identity stored by
// instrument (zero value when the request bypassed it, e.g. in direct
// handler tests).
func requestInfo(r *http.Request) reqInfo {
	info, _ := r.Context().Value(reqInfoKey{}).(reqInfo)
	return info
}

// instrument wraps a handler with the endpoint's request counter, error
// counter, latency histogram, the global in-flight gauge, a response
// X-Request-ID header, and (when Options.Log is set) one structured log
// record per request.
func (s *Server) instrument(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	em := s.metrics.endpoints[endpoint]
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		id := s.requestID.Add(1)
		idStr := fmt.Sprintf("%08x", id)
		w.Header().Set("X-Request-ID", idStr)
		r = r.WithContext(context.WithValue(r.Context(), reqInfoKey{}, reqInfo{id: idStr, endpoint: endpoint}))
		s.metrics.inFlight.Add(1)
		defer s.metrics.inFlight.Add(-1)
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		h(sw, r)
		elapsed := time.Since(start)
		em.requests.Inc()
		if sw.status >= 400 {
			em.errors.Inc()
		}
		em.observeLatency(elapsed)
		if s.opts.Log != nil {
			s.opts.Log.Info("request",
				"id", id,
				"endpoint", endpoint,
				"method", r.Method,
				"path", r.URL.Path,
				"status", sw.status,
				"duration_ms", float64(elapsed)/float64(time.Millisecond))
		}
	}
}

func writeJSONBytes(w http.ResponseWriter, b []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.Write(b)
}

func writeJSON(w http.ResponseWriter, v any) {
	b, err := report.JSONBytes(v)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	writeJSONBytes(w, b)
}

func writeError(w http.ResponseWriter, status int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	b, _ := report.JSONBytes(map[string]string{"error": err.Error()})
	w.Write(b)
}

// runDims carries a request's analysis dimensions (which workload,
// topology, and scale a run was about) into its canonical run event;
// zero fields are simply omitted from the log line.
type runDims struct {
	App   string
	Topo  string
	Ranks int
}

// msSince is a duration-to-milliseconds helper for event fields.
func msSince(t time.Time) float64 {
	return float64(time.Since(t)) / float64(time.Millisecond)
}

// cached serves one canonicalized request through the result LRU: a
// resident value is served as is, a request that finds an identical
// computation in flight waits for it and shares its bytes, and
// otherwise this request computes through execute and the LRU keeps the
// marshaled bytes for the next identical request. Exactly one canonical
// run event is logged per caller — cache="miss" for the computing
// request (through execute), cache="hit" for LRU hits, cache="dedup"
// for requests that joined an identical in-flight computation.
func (s *Server) cached(r *http.Request, dims runDims, key string, compute func(sp *obs.Span) (any, error)) ([]byte, error) {
	info := requestInfo(r)
	start := time.Now()
	event := func(cache string) obs.RunEvent {
		return obs.RunEvent{
			RequestID: info.id, Endpoint: info.endpoint,
			App: dims.App, Topology: dims.Topo, Ranks: dims.Ranks,
			Cache: cache, DurationMS: msSince(start),
		}
	}
	b, outcome, err := s.cache.Do(key, func() ([]byte, error) {
		v, err := s.execute(key, event("miss"), compute)
		if err != nil {
			return nil, err
		}
		return report.JSONBytes(v)
	})
	switch outcome {
	case workcache.Hit:
		s.metrics.logRun(event("hit"))
	case workcache.Shared:
		s.metrics.logRun(event("dedup"))
	}
	return b, err
}

// execute runs one computation under a request-level worker token and a
// root span named name (compute receives it to hand down to the
// pipeline), then passes the finished run through completeRun with ev's
// run ID, queue wait, duration and error filled in. Cached requests,
// uploads and design jobs all compute here. The token is released by
// defer, so a panicking computation cannot leak it.
func (s *Server) execute(name string, ev obs.RunEvent, compute func(sp *obs.Span) (any, error)) (any, error) {
	start := time.Now()
	s.budget.Acquire()
	defer s.budget.Release()
	queueWait := time.Since(start)
	s.metrics.computations.Inc()
	root := s.tracer.StartRun(name)
	v, err := compute(root)
	root.End()
	ev.RunID = root.RunID()
	ev.QueueWaitMS = float64(queueWait) / float64(time.Millisecond)
	ev.DurationMS = msSince(start)
	if err != nil {
		ev.Err = err.Error()
	}
	s.metrics.completeRun(root.Data(), ev)
	return v, err
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, map[string]any{"status": "ok", "experiments": len(harness.Experiments())})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if wantsPrometheus(r) {
		w.Header().Set("Content-Type", obs.PrometheusContentType)
		if err := s.metrics.reg.WritePrometheus(w); err != nil {
			writeError(w, http.StatusInternalServerError, err)
		}
		return
	}
	writeJSON(w, s.metrics.snapshot(s.budget.Stats()))
}

// wantsPrometheus selects the text exposition format: explicitly via
// ?format=prom, or via an Accept header asking for text/plain or
// OpenMetrics (what Prometheus scrapers send). The default stays JSON,
// so existing consumers see an unchanged document.
func wantsPrometheus(r *http.Request) bool {
	if r.URL.Query().Get("format") == "prom" {
		return true
	}
	accept := r.Header.Get("Accept")
	return strings.Contains(accept, "text/plain") || strings.Contains(accept, "openmetrics")
}

// DebugRuns is the /v1/debug/runs response: the most recent analysis
// runs (newest first) with their nested stage spans, plus how many runs
// were recorded over the server's lifetime.
type DebugRuns struct {
	Recorded int64           `json:"recorded"`
	Runs     []obs.RunRecord `json:"runs"`
}

func (s *Server) handleDebugRuns(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	n := 0
	if raw := q.Get("n"); raw != "" {
		v, err := strconv.Atoi(raw)
		if err != nil || v < 1 {
			writeError(w, http.StatusBadRequest,
				fmt.Errorf("service: bad n %q: want a positive integer (1..%d)", raw, obs.DefaultTracerRuns))
			return
		}
		n = v
	}
	runs := s.tracer.Runs()
	if n > 0 && n < len(runs) {
		runs = runs[:n]
	}
	writeJSON(w, DebugRuns{Recorded: s.tracer.Recorded(), Runs: runs})
}

// debugRun resolves the {id} path value of the single-run endpoints:
// 400 for a malformed ID, 404 for one that was never assigned or has
// already rotated out of the bounded ring.
func (s *Server) debugRun(w http.ResponseWriter, r *http.Request) (obs.RunRecord, bool) {
	raw := r.PathValue("id")
	id, err := strconv.ParseInt(raw, 10, 64)
	if err != nil || id < 1 {
		writeError(w, http.StatusBadRequest,
			fmt.Errorf("service: bad run id %q: want a positive integer", raw))
		return obs.RunRecord{}, false
	}
	rec, ok := s.tracer.Run(id)
	if !ok {
		writeError(w, http.StatusNotFound,
			fmt.Errorf("service: run %d not found (recorded %d, ring keeps the most recent %d)",
				id, s.tracer.Recorded(), obs.DefaultTracerRuns))
		return obs.RunRecord{}, false
	}
	return rec, true
}

func (s *Server) handleDebugRun(w http.ResponseWriter, r *http.Request) {
	rec, ok := s.debugRun(w, r)
	if !ok {
		return
	}
	writeJSON(w, rec)
}

// handleDebugRunTrace serves one recorded run as Chrome trace-event
// JSON — the same bytes obs.WriteChromeTrace renders for the CLIs'
// -trace-out flags — so a service run can be dropped straight into
// Perfetto or chrome://tracing.
func (s *Server) handleDebugRunTrace(w http.ResponseWriter, r *http.Request) {
	rec, ok := s.debugRun(w, r)
	if !ok {
		return
	}
	w.Header().Set("Content-Type", "application/json")
	// A write error here means the client went away mid-response;
	// headers are already out, so there is nothing useful left to do.
	_ = obs.WriteChromeTrace(w, rec.Root)
}

// ExperimentInfo is one row of the experiment listing.
type ExperimentInfo struct {
	Name        string `json:"name"`
	Description string `json:"description"`
}

func (s *Server) handleExperimentList(w http.ResponseWriter, r *http.Request) {
	var out []ExperimentInfo
	for _, name := range harness.Experiments() {
		desc, _ := harness.Describe(name)
		out = append(out, ExperimentInfo{Name: name, Description: desc})
	}
	writeJSON(w, out)
}

// queryInt parses an optional integer query parameter.
func queryInt(q url.Values, name string, def int) (int, error) {
	v := q.Get(name)
	if v == "" {
		return def, nil
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		return 0, fmt.Errorf("service: bad %s %q: not an integer", name, v)
	}
	return n, nil
}

// queryNonNegInt parses an optional integer query parameter and rejects
// negative values, which would otherwise flow into the harness as
// nonsense grid bounds or rank indexes.
func queryNonNegInt(q url.Values, name string, def int) (int, error) {
	n, err := queryInt(q, name, def)
	if err != nil {
		return 0, err
	}
	if n < 0 {
		return 0, fmt.Errorf("service: %s %d is negative", name, n)
	}
	return n, nil
}

// queryFloat parses an optional float query parameter.
func queryFloat(q url.Values, name string, def float64) (float64, error) {
	v := q.Get(name)
	if v == "" {
		return def, nil
	}
	f, err := strconv.ParseFloat(v, 64)
	if err != nil {
		return 0, fmt.Errorf("service: bad %s %q: not a number", name, v)
	}
	return f, nil
}

// capRanks combines the operator's rank cap with a request's: a request
// may lower the cap but never lift it. Zero means no cap.
func capRanks(server, requested int) int {
	if server > 0 && (requested == 0 || requested > server) {
		return server
	}
	return requested
}

// runOptions returns the core.Options every computation starts from: the
// server's analysis defaults wired to the shared worker budget and the
// artifact cache. Intra-request parallelism draws from the same budget
// that admits requests, so the two levels compose instead of
// oversubscribing. Parallelism never changes results, so it stays out of
// cache keys — and neither does the artifact cache, whose contents are
// byte-identical to fresh generation (uploaded traces bypass it entirely
// in core.AnalyzeTrace).
func (s *Server) runOptions() core.Options {
	opts := s.opts.Analysis
	opts.Parallelism = s.opts.Workers
	opts.Budget = s.budget
	opts.Cache = s.work
	return opts
}

// analysisOptions builds the per-request core.Options: runOptions with
// coverage and strategy overridden from the query when it names them,
// and maxranks lowering the server's rank cap. The returned values are
// canonicalized (defaults filled in) so equivalent requests share one
// cache key.
func (s *Server) analysisOptions(q url.Values) (core.Options, error) {
	opts := s.runOptions()
	cov, err := queryFloat(q, "coverage", opts.Coverage)
	if err != nil {
		return opts, err
	}
	if cov == 0 {
		cov = metrics.DefaultCoverage
	}
	if err := metrics.CheckCoverage(cov); err != nil {
		return opts, err
	}
	opts.Coverage = cov
	if v := q.Get("strategy"); v != "" {
		if opts.Strategy, err = mpi.ParseStrategy(v); err != nil {
			return opts, err
		}
	}
	maxRanks, err := queryNonNegInt(q, "maxranks", 0)
	if err != nil {
		return opts, err
	}
	opts.MaxRanks = capRanks(opts.MaxRanks, maxRanks)
	return opts, nil
}

func (s *Server) handleExperiment(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if _, err := harness.Describe(name); err != nil {
		writeError(w, http.StatusNotFound, fmt.Errorf("%w (known: %v)", err, harness.Experiments()))
		return
	}
	q := r.URL.Query()
	opts, err := s.analysisOptions(q)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	p := harness.Params{Experiment: name, App: q.Get("app"), Options: opts}
	if p.Ranks, err = queryNonNegInt(q, "ranks", 0); err == nil {
		if p.Rank, err = queryNonNegInt(q, "rank", 0); err == nil {
			p.MinRanks, err = queryNonNegInt(q, "minranks", 0)
		}
	}
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	key := fmt.Sprintf("exp/%s?app=%s&coverage=%g&maxranks=%d&minranks=%d&rank=%d&ranks=%d&strategy=%s",
		name, p.App, opts.Coverage, opts.MaxRanks, p.MinRanks, p.Rank, p.Ranks, opts.Strategy)
	b, err := s.cached(r, runDims{App: p.App, Ranks: p.Ranks}, key, func(sp *obs.Span) (any, error) {
		q := p
		q.Options.Span = sp
		return harness.Collect(q)
	})
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	writeJSONBytes(w, b)
}

// AnalyzeResult is the /v1/analyze response: the canonicalized request
// plus the analysis (MPI-level metrics and the selected topology blocks).
type AnalyzeResult struct {
	App      string         `json:"app"`
	Ranks    int            `json:"ranks"`
	Topology string         `json:"topology"`
	Mapping  string         `json:"mapping"`
	Coverage float64        `json:"coverage"`
	Analysis *core.Analysis `json:"analysis"`
}

func (s *Server) handleAnalyze(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	app := q.Get("app")
	if app == "" {
		writeError(w, http.StatusBadRequest, errors.New("service: missing app parameter"))
		return
	}
	if _, err := workloads.Lookup(app); err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	ranks, err := queryInt(q, "ranks", 0)
	if err != nil || ranks < 1 {
		if err == nil {
			err = fmt.Errorf("service: ranks %d out of range (need >= 1)", ranks)
		}
		writeError(w, http.StatusBadRequest, err)
		return
	}
	topo := q.Get("topo")
	switch topo {
	case "":
		topo = "all"
	case "all":
	default:
		if !slices.Contains(core.AnalysisKinds(), topo) {
			writeError(w, http.StatusBadRequest,
				fmt.Errorf("service: unknown topo %q (all|%s)", topo, strings.Join(core.AnalysisKinds(), "|")))
			return
		}
	}
	mapping := q.Get("mapping")
	if mapping == "" {
		mapping = core.MappingConsecutive
	}
	if !slices.Contains(core.MappingNames(), mapping) {
		writeError(w, http.StatusBadRequest,
			fmt.Errorf("service: unknown mapping %q (known: %v)", mapping, core.MappingNames()))
		return
	}
	opts, err := s.analysisOptions(q)
	if err == nil && opts.MaxRanks > 0 && ranks > opts.MaxRanks {
		// The cache key carries no rank cap: refuse before the lookup,
		// or an answer cached under a higher cap would bypass this one.
		err = fmt.Errorf("service: %d ranks exceed the rank cap %d", ranks, opts.MaxRanks)
	}
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	key := fmt.Sprintf("analyze?app=%s&coverage=%g&mapping=%s&ranks=%d&strategy=%s&topo=%s",
		app, opts.Coverage, mapping, ranks, opts.Strategy, topo)
	b, err := s.cached(r, runDims{App: app, Topo: topo, Ranks: ranks}, key, func(sp *obs.Span) (any, error) {
		o := opts
		o.Span = sp
		a, err := core.AnalyzeAppOn(app, ranks, topo, mapping, o)
		if err != nil {
			return nil, err
		}
		return &AnalyzeResult{
			App: a.App, Ranks: a.Ranks, Topology: topo, Mapping: mapping,
			Coverage: opts.Coverage, Analysis: a,
		}, nil
	})
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	writeJSONBytes(w, b)
}

// TopoInfo describes one built topology configuration.
type TopoInfo struct {
	Config        topology.Config `json:"config"`
	Label         string          `json:"label"`
	Nodes         int             `json:"nodes"`
	Switches      int             `json:"switches"`
	Links         int             `json:"links"`
	TerminalLinks int             `json:"terminal_links"`
	LocalLinks    int             `json:"local_links"`
	GlobalLinks   int             `json:"global_links"`
}

// TopologiesResult is the /v1/topologies response: the three Table 2
// configurations for a rank count, each built and measured, plus the
// extreme-scale families (Slim Fly, Jellyfish, HyperX) sized for the
// same rank count. The extra blocks are pointers so a rank count one of
// the auxiliary sizers cannot satisfy simply omits that family instead
// of failing the whole response.
type TopologiesResult struct {
	Ranks     int       `json:"ranks"`
	Torus     TopoInfo  `json:"torus"`
	FatTree   TopoInfo  `json:"fattree"`
	Dragonfly TopoInfo  `json:"dragonfly"`
	SlimFly   *TopoInfo `json:"slimfly,omitempty"`
	Jellyfish *TopoInfo `json:"jellyfish,omitempty"`
	HyperX    *TopoInfo `json:"hyperx,omitempty"`
}

func topoInfo(cfg topology.Config, opts core.Options) (TopoInfo, error) {
	t, err := core.Topology(cfg, opts)
	if err != nil {
		return TopoInfo{}, err
	}
	info := TopoInfo{
		Config:   cfg,
		Label:    cfg.String(),
		Nodes:    t.Nodes(),
		Switches: t.NumVertices() - t.Nodes(),
		Links:    len(t.Links()),
	}
	for _, class := range t.LinkClasses() {
		switch class {
		case topology.ClassTerminal:
			info.TerminalLinks++
		case topology.ClassLocal:
			info.LocalLinks++
		case topology.ClassGlobal:
			info.GlobalLinks++
		}
	}
	return info, nil
}

// handleTopologies builds the six families for a rank count. The
// server's rank cap applies before anything is built or cached.
func (s *Server) handleTopologies(w http.ResponseWriter, r *http.Request) {
	ranks, err := queryInt(r.URL.Query(), "ranks", 0)
	if err == nil && ranks < 1 {
		err = fmt.Errorf("service: ranks %d out of range (need >= 1)", ranks)
	}
	if err == nil {
		err = s.opts.Analysis.CheckRanks(ranks)
	}
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	key := fmt.Sprintf("topo?ranks=%d", ranks)
	b, err := s.cached(r, runDims{Ranks: ranks}, key, func(sp *obs.Span) (any, error) {
		tor, ft, df, err := topology.Configs(ranks)
		if err != nil {
			return nil, err
		}
		opts := core.Options{Cache: s.work, Span: sp}
		out := TopologiesResult{Ranks: ranks}
		if out.Torus, err = topoInfo(tor, opts); err != nil {
			return nil, err
		}
		if out.FatTree, err = topoInfo(ft, opts); err != nil {
			return nil, err
		}
		if out.Dragonfly, err = topoInfo(df, opts); err != nil {
			return nil, err
		}
		extra := []struct {
			sizer func(int) (topology.Config, error)
			dst   **TopoInfo
		}{
			{topology.SlimFlyConfig, &out.SlimFly},
			{topology.JellyfishConfig, &out.Jellyfish},
			{topology.HyperXConfig, &out.HyperX},
		}
		for _, e := range extra {
			cfg, err := e.sizer(ranks)
			if err != nil {
				continue // no valid configuration at this size: omit the block
			}
			info, err := topoInfo(cfg, opts)
			if err != nil {
				return nil, err
			}
			*e.dst = &info
		}
		return &out, nil
	})
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	writeJSONBytes(w, b)
}

// handleTraceAnalyze analyzes a POSTed binary .nlt trace. Uploads are
// not cached (bodies are arbitrary), but they do run inside the worker
// pool so uploads cannot starve the experiment endpoints.
func (s *Server) handleTraceAnalyze(w http.ResponseWriter, r *http.Request) {
	opts, err := s.analysisOptions(r.URL.Query())
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	body := http.MaxBytesReader(w, r.Body, maxBodyBytes)
	defer body.Close()
	t, err := trace.ReadTrace(body)
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("service: bad trace body: %w", err))
		return
	}
	info := requestInfo(r)
	ev := obs.RunEvent{RequestID: info.id, Endpoint: info.endpoint, App: t.Meta.App, Ranks: t.Meta.Ranks, Cache: "none"}
	v, err := s.execute(fmt.Sprintf("trace/%s/%d", t.Meta.App, t.Meta.Ranks), ev, func(sp *obs.Span) (any, error) {
		opts.Span = sp
		return core.AnalyzeTrace(t, opts)
	})
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, &harness.Result{Experiment: "trace", Rows: []*core.Analysis{v.(*core.Analysis)}})
}
