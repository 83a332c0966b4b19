package main

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"netloc/internal/core"
	"netloc/internal/service"
)

// TestRunServesAndShutsDown boots the daemon on an ephemeral port, hits
// the liveness and experiment endpoints, and verifies cancellation shuts
// the server down cleanly.
func TestRunServesAndShutsDown(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	bound := make(chan string, 1)
	done := make(chan error, 1)
	opts := service.Options{Analysis: core.Options{MaxRanks: 64}}
	go func() {
		done <- run(ctx, "127.0.0.1:0", opts, true, func(addr string, eff service.Options) {
			if eff.CacheEntries == 0 || eff.Workers == 0 {
				t.Errorf("ready called with unresolved defaults: %+v", eff)
			}
			bound <- addr
		})
	}()

	var addr string
	select {
	case addr = <-bound:
	case err := <-done:
		t.Fatalf("server exited early: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("server never came up")
	}

	get := func(path string) string {
		resp, err := http.Get(fmt.Sprintf("http://%s%s", addr, path))
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d: %s", path, resp.StatusCode, body)
		}
		return string(body)
	}
	if body := get("/healthz"); !strings.Contains(body, `"ok"`) {
		t.Errorf("healthz body: %s", body)
	}
	if body := get("/v1/experiments/table2?maxranks=64"); !strings.Contains(body, `"table2"`) {
		t.Errorf("table2 body: %s", body)
	}
	// debug=true mounts the pprof index next to the service routes.
	if body := get("/debug/pprof/"); !strings.Contains(body, "pprof") {
		t.Errorf("pprof index body: %.80s", body)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("shutdown error: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("server never shut down")
	}
}

// TestServerBoundsSlowAndIdleConnections pins the connection bounds: a
// client gets 10 s to finish its headers and an idle connection 2 min,
// while uploads and long searches get no whole-request deadline.
func TestServerBoundsSlowAndIdleConnections(t *testing.T) {
	srv := newServer(http.NotFoundHandler())
	if srv.ReadHeaderTimeout != 10*time.Second || srv.IdleTimeout != 2*time.Minute {
		t.Errorf("ReadHeaderTimeout %v, IdleTimeout %v; want 10s, 2m0s", srv.ReadHeaderTimeout, srv.IdleTimeout)
	}
	if srv.ReadTimeout != 0 || srv.WriteTimeout != 0 {
		t.Errorf("ReadTimeout %v, WriteTimeout %v; want both unset", srv.ReadTimeout, srv.WriteTimeout)
	}
}

func TestRunBadAddress(t *testing.T) {
	if err := run(context.Background(), "256.0.0.1:bad", service.Options{}, false, nil); err == nil {
		t.Fatal("bad address accepted")
	}
}
