// Command netlocd runs the analysis service: a long-running HTTP JSON
// server exposing the study's experiment grid (tables, figures, claims,
// scorecard), per-workload analysis, topology inspection, and
// uploaded-trace analysis, with result caching, request deduplication,
// bounded compute concurrency, and /metrics observability. See
// internal/service for the endpoint reference.
//
// Usage:
//
//	netlocd [flags]
//
// Flags:
//
//	-addr string            listen address (default ":8537")
//	-cache int              result-cache entries (default 256)
//	-workers int            total compute-goroutine budget, shared between
//	                        concurrent requests and each request's internal
//	                        parallelism (default GOMAXPROCS)
//	-coverage float         traffic-coverage threshold in (0,1] (default 0.9);
//	                        any other value fails at start-up with exit 2
//	-maxranks int           cap the configuration grid at this rank count (0 = no cap)
//	-runtime-sample dur     runtime telemetry sampling interval for the
//	                        netloc_runtime_* series (default 10s, 0 = off)
//	-slowrun dur            slow-run threshold: computed runs slower than this
//	                        bump netloc_slow_runs_total{endpoint} and log their
//	                        per-stage summary (default 30s, 0 = off)
//	-debug                  also serve net/http/pprof profiles under /debug/pprof/
//
// Requests are logged to stderr as structured slog lines carrying the
// request ID the service stamps into the X-Request-ID response header;
// each completed computation additionally logs one canonical
// "run_complete" event (endpoint, dims, cache state, queue wait,
// duration). Per-run stage traces are served at /v1/debug/runs, and
// /v1/debug/runs/{id}/trace exports one run as Chrome trace-event JSON
// for Perfetto / chrome://tracing.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"netloc/internal/core"
	"netloc/internal/metrics"
	"netloc/internal/service"
)

// Connection bounds: a client that never finishes its request headers,
// or a keep-alive connection left idle, is dropped. The whole-request
// read and write deadlines stay unset, so a 64 MiB trace upload or a
// long design search is not cut off.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

// newServer wraps the handler in an http.Server with the connection
// bounds.
func newServer(handler http.Handler) *http.Server {
	return &http.Server{Handler: handler, ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout}
}

// run listens on addr and serves the analysis service until ctx is
// cancelled, then shuts down gracefully. With debug set, the Go pprof
// profiling endpoints are mounted under /debug/pprof/ next to the
// service routes. ready (if non-nil) is called with the bound address
// and the effective (defaults-applied) options once the listener is up.
func run(ctx context.Context, addr string, opts service.Options, debug bool, ready func(addr string, eff service.Options)) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	svc := service.New(opts)
	defer svc.Close()
	var handler http.Handler = svc.Handler()
	if debug {
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		mux.Handle("/", handler)
		handler = mux
	}
	srv := newServer(handler)
	if ready != nil {
		ready(ln.Addr().String(), svc.Options())
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case <-ctx.Done():
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		return srv.Shutdown(shutdownCtx)
	case err := <-errc:
		return err
	}
}

func main() {
	var (
		addr          = flag.String("addr", ":8537", "listen address")
		cache         = flag.Int("cache", 0, "result-cache entries (default 256)")
		workers       = flag.Int("workers", 0, "total compute-goroutine budget across and within requests (default GOMAXPROCS)")
		coverage      = flag.Float64("coverage", 0, "traffic-coverage threshold in (0,1] (default 0.9)")
		maxRanks      = flag.Int("maxranks", 0, "cap the configuration grid at this rank count (0 = no cap)")
		runtimeSample = flag.Duration("runtime-sample", 10*time.Second, "runtime telemetry sampling interval (0 = off)")
		slowRun       = flag.Duration("slowrun", 30*time.Second, "slow-run threshold for netloc_slow_runs_total and slow_run logs (0 = off)")
		debug         = flag.Bool("debug", false, "also serve net/http/pprof profiles under /debug/pprof/")
	)
	flag.Parse()
	// A coverage every analysis request would be refused for is refused
	// once, here, the way the flag package refuses a malformed value.
	if *coverage != 0 {
		if err := metrics.CheckCoverage(*coverage); err != nil {
			fmt.Fprintf(flag.CommandLine.Output(), "invalid value %q for flag -coverage: %v\n", flag.Lookup("coverage").Value, err)
			flag.Usage()
			os.Exit(2)
		}
	}

	opts := service.Options{
		CacheEntries:          *cache,
		Workers:               *workers,
		Analysis:              core.Options{Coverage: *coverage, MaxRanks: *maxRanks},
		Log:                   slog.New(slog.NewTextHandler(os.Stderr, nil)),
		RuntimeSampleInterval: *runtimeSample,
		SlowRunThreshold:      *slowRun,
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	err := run(ctx, *addr, opts, *debug, func(bound string, eff service.Options) {
		log.Printf("netlocd: serving on %s (cache=%d workers=%d)",
			bound, eff.CacheEntries, eff.Workers)
	})
	if err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "netlocd:", err)
		os.Exit(1)
	}
}
