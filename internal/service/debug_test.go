package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"netloc/internal/core"
	"netloc/internal/obs"
)

// syncLogger returns a slog text logger writing into a mutex-guarded
// buffer, plus a reader for the accumulated output.
func syncLogger() (*slog.Logger, func() string) {
	var buf bytes.Buffer
	var mu sync.Mutex
	l := slog.New(slog.NewTextHandler(writerFunc(func(p []byte) (int, error) {
		mu.Lock()
		defer mu.Unlock()
		return buf.Write(p)
	}), nil))
	return l, func() string {
		mu.Lock()
		defer mu.Unlock()
		return buf.String()
	}
}

func TestDebugRunsLimit(t *testing.T) {
	ts := newTestServer(t, Options{Analysis: core.Options{MaxRanks: 64}})
	for _, q := range []string{"app=LULESH&ranks=64", "app=AMG&ranks=27", "app=AMG&ranks=8"} {
		getOK(t, ts, "/v1/analyze?"+q+"&topo=torus")
	}
	var full DebugRuns
	if err := json.Unmarshal(getOK(t, ts, "/v1/debug/runs"), &full); err != nil {
		t.Fatal(err)
	}
	if len(full.Runs) < 3 {
		t.Fatalf("recorded %d runs, want >= 3", len(full.Runs))
	}
	var limited DebugRuns
	if err := json.Unmarshal(getOK(t, ts, "/v1/debug/runs?n=1"), &limited); err != nil {
		t.Fatal(err)
	}
	if len(limited.Runs) != 1 {
		t.Fatalf("?n=1 returned %d runs", len(limited.Runs))
	}
	if limited.Runs[0].ID != full.Runs[0].ID {
		t.Errorf("?n=1 did not keep the newest run: %d vs %d", limited.Runs[0].ID, full.Runs[0].ID)
	}
	if limited.Recorded != full.Recorded {
		t.Errorf("recorded total changed under ?n=: %d vs %d", limited.Recorded, full.Recorded)
	}
	// A limit beyond the recorded count returns everything.
	var big DebugRuns
	if err := json.Unmarshal(getOK(t, ts, "/v1/debug/runs?n=10000"), &big); err != nil {
		t.Fatal(err)
	}
	if len(big.Runs) != len(full.Runs) {
		t.Errorf("?n=10000 returned %d runs, want %d", len(big.Runs), len(full.Runs))
	}
	for _, bad := range []string{"0", "-1", "x", "1.5", ""} {
		status, body := get(t, ts, "/v1/debug/runs?n="+bad)
		want := http.StatusBadRequest
		if bad == "" { // empty means unset, not invalid
			want = http.StatusOK
		}
		if status != want {
			t.Errorf("?n=%q: status %d, want %d: %s", bad, status, want, body)
		}
	}
}

func TestDebugRunByID(t *testing.T) {
	ts := newTestServer(t, Options{Analysis: core.Options{MaxRanks: 64}})
	getOK(t, ts, "/v1/analyze?app=LULESH&ranks=64&topo=torus")
	var doc DebugRuns
	if err := json.Unmarshal(getOK(t, ts, "/v1/debug/runs"), &doc); err != nil {
		t.Fatal(err)
	}
	id := doc.Runs[0].ID
	if id < 1 {
		t.Fatalf("run has no ID: %+v", doc.Runs[0])
	}
	var rec obs.RunRecord
	if err := json.Unmarshal(getOK(t, ts, fmt.Sprintf("/v1/debug/runs/%d", id)), &rec); err != nil {
		t.Fatal(err)
	}
	if rec.ID != id || !strings.Contains(rec.Root.Name, "analyze") {
		t.Errorf("run %d fetch = {ID: %d, Root: %q}", id, rec.ID, rec.Root.Name)
	}
	for path, want := range map[string]int{
		"/v1/debug/runs/0":      http.StatusBadRequest,
		"/v1/debug/runs/-3":     http.StatusBadRequest,
		"/v1/debug/runs/abc":    http.StatusBadRequest,
		"/v1/debug/runs/999999": http.StatusNotFound,
	} {
		if status, body := get(t, ts, path); status != want {
			t.Errorf("GET %s: status %d, want %d: %s", path, status, want, body)
		}
	}
}

// TestDebugRunTraceEndpoint checks /v1/debug/runs/{id}/trace serves the
// recorded run in Chrome trace-event shape: a JSON array of events with
// pid/tid/ph and non-decreasing timestamps.
func TestDebugRunTraceEndpoint(t *testing.T) {
	ts := newTestServer(t, Options{Analysis: core.Options{MaxRanks: 64}})
	getOK(t, ts, "/v1/analyze?app=LULESH&ranks=64&topo=torus")
	var doc DebugRuns
	if err := json.Unmarshal(getOK(t, ts, "/v1/debug/runs"), &doc); err != nil {
		t.Fatal(err)
	}
	path := fmt.Sprintf("/v1/debug/runs/%d/trace", doc.Runs[0].ID)
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("trace content type = %q", ct)
	}
	var events []map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&events); err != nil {
		t.Fatalf("trace is not a JSON array: %v", err)
	}
	if len(events) == 0 {
		t.Fatal("empty trace")
	}
	lastTs, sawAnalyze := -1.0, false
	for i, ev := range events {
		for _, field := range []string{"name", "ph", "pid", "tid", "ts"} {
			if _, ok := ev[field]; !ok {
				t.Fatalf("event %d missing %q: %v", i, field, ev)
			}
		}
		ts := ev["ts"].(float64)
		if ts < lastTs {
			t.Fatalf("ts not monotonic at event %d", i)
		}
		lastTs = ts
		if name, _ := ev["name"].(string); strings.Contains(name, "analyze") {
			sawAnalyze = true
		}
	}
	if !sawAnalyze {
		t.Error("no analyze span in exported trace")
	}
	if status, _ := get(t, ts, "/v1/debug/runs/999999/trace"); status != http.StatusNotFound {
		t.Errorf("missing-run trace status = %d, want 404", status)
	}
}

// TestRunEventsLogged checks the canonical one-line-per-run events: a
// computed run logs cache=miss with queue/duration timings, the repeat
// logs cache=hit, and both carry the endpoint and dimensions.
func TestRunEventsLogged(t *testing.T) {
	logger, read := syncLogger()
	ts := newTestServer(t, Options{Log: logger, Analysis: core.Options{MaxRanks: 64}})
	getOK(t, ts, "/v1/analyze?app=LULESH&ranks=64&topo=torus")
	getOK(t, ts, "/v1/analyze?app=LULESH&ranks=64&topo=torus")
	out := read()
	var miss, hit string
	for _, line := range strings.Split(out, "\n") {
		if !strings.Contains(line, "msg=run_complete") {
			continue
		}
		switch {
		case strings.Contains(line, "cache=miss"):
			miss = line
		case strings.Contains(line, "cache=hit"):
			hit = line
		}
	}
	if miss == "" || hit == "" {
		t.Fatalf("missing run_complete lines (miss=%q hit=%q) in:\n%s", miss, hit, out)
	}
	for _, want := range []string{"endpoint=analyze", "app=LULESH", "topo=torus", "ranks=64", "duration_ms=", "run_id=", "request_id="} {
		if !strings.Contains(miss, want) {
			t.Errorf("miss event lacks %s: %s", want, miss)
		}
	}
	// Hits serve marshaled bytes: no span, no run_id.
	if strings.Contains(hit, "run_id=") {
		t.Errorf("cache-hit event carries a run_id: %s", hit)
	}
	if !strings.Contains(hit, "endpoint=analyze") {
		t.Errorf("hit event lacks endpoint: %s", hit)
	}
}

// TestSlowRunDetector configures a sub-microsecond threshold so every
// computed run counts as slow, then checks the counter and the warn log.
func TestSlowRunDetector(t *testing.T) {
	logger, read := syncLogger()
	ts := newTestServer(t, Options{
		Log:              logger,
		SlowRunThreshold: time.Nanosecond,
		Analysis:         core.Options{MaxRanks: 64},
	})
	getOK(t, ts, "/v1/analyze?app=LULESH&ranks=64&topo=torus")

	var doc struct {
		SlowRuns map[string]int64 `json:"slow_runs"`
	}
	if err := json.Unmarshal(getOK(t, ts, "/metrics"), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.SlowRuns["analyze"] < 1 {
		t.Errorf("slow_runs[analyze] = %d, want >= 1 (%v)", doc.SlowRuns["analyze"], doc.SlowRuns)
	}
	req, _ := http.NewRequest("GET", ts.URL+"/metrics", nil)
	req.Header.Set("Accept", "text/plain;version=0.0.4")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	promBody, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(promBody), `netloc_slow_runs_total{endpoint="analyze"} 1`) {
		t.Errorf("prom exposition missing slow-run counter:\n%s", string(promBody))
	}
	out := read()
	if !strings.Contains(out, "msg=slow_run") || !strings.Contains(out, "threshold_ms=") {
		t.Errorf("no slow_run warning logged:\n%s", out)
	}
	if !strings.Contains(out, "summary=") {
		t.Errorf("slow_run warning lacks the span summary:\n%s", out)
	}
}

// TestRuntimeTelemetryOptIn checks the sampler's two surfaces appear
// only when a sample interval is configured, keeping default servers'
// /metrics output byte-stable.
func TestRuntimeTelemetryOptIn(t *testing.T) {
	// Off by default.
	off := newTestServer(t, Options{})
	var offDoc map[string]json.RawMessage
	if err := json.Unmarshal(getOK(t, off, "/metrics"), &offDoc); err != nil {
		t.Fatal(err)
	}
	if _, ok := offDoc["runtime"]; ok {
		t.Error("runtime block present without opting in")
	}

	// On when configured; use New directly so Close can stop the sampler.
	srv := New(Options{RuntimeSampleInterval: time.Hour})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Close()
	var doc struct {
		Runtime *obs.RuntimeSnapshot `json:"runtime"`
	}
	if err := json.Unmarshal(getOK(t, ts, "/metrics"), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Runtime == nil {
		t.Fatal("no runtime block with sampler configured")
	}
	if doc.Runtime.Goroutines < 1 || doc.Runtime.HeapBytes < 1 {
		t.Errorf("implausible runtime snapshot: %+v", doc.Runtime)
	}
	req, _ := http.NewRequest("GET", ts.URL+"/metrics", nil)
	req.Header.Set("Accept", "text/plain;version=0.0.4")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	promBody, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"netloc_runtime_goroutines", "netloc_runtime_heap_bytes", "netloc_runtime_gc_pauses_total", "netloc_runtime_gc_pause_seconds"} {
		if !strings.Contains(string(promBody), name) {
			t.Errorf("prom exposition missing %s", name)
		}
	}
	srv.Close() // second Close is safe
}
