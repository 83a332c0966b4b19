package service

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"netloc/internal/core"
	"netloc/internal/design"
	"netloc/internal/trace"
)

// postJSON posts a JSON body and returns status and response body.
func postJSON(t *testing.T, ts *httptest.Server, path, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	return resp.StatusCode, buf.Bytes()
}

// designBody is the acceptance request: milc at 512 nodes under radix
// and cost constraints, trimmed to two candidates per family to keep
// the sweep test-sized.
const designBody = `{
  "app": "milc",
  "ranks": 512,
  "constraints": {"max_radix": 48, "max_links": 40000, "max_candidates": 2}
}`

// TestDesignEndpointAcceptance drives POST /v1/design with the ISSUE's
// acceptance request and checks the sheet shape: >= 3 families x 2
// mappings, ranked, all metric blocks populated.
func TestDesignEndpointAcceptance(t *testing.T) {
	ts := newTestServer(t, Options{})
	status, body := postJSON(t, ts, "/v1/design", designBody)
	if status != http.StatusOK {
		t.Fatalf("POST /v1/design: status %d: %s", status, body)
	}
	var sheet design.Sheet
	if err := json.Unmarshal(body, &sheet); err != nil {
		t.Fatal(err)
	}
	if sheet.App != "MILC" || sheet.Ranks != 512 {
		t.Fatalf("sheet header %s@%d, want MILC@512", sheet.App, sheet.Ranks)
	}
	families := map[string]bool{}
	mappings := map[string]bool{}
	for i, r := range sheet.Rows {
		families[r.Family] = true
		mappings[r.Mapping] = true
		if r.Rank != i+1 {
			t.Errorf("row %d rank %d", i, r.Rank)
		}
		if r.AvgHops <= 0 || r.MakespanSec <= 0 || r.CostUnits <= 0 {
			t.Errorf("%s: metrics not populated (hops %g, makespan %g, cost %g)",
				r.Name, r.AvgHops, r.MakespanSec, r.CostUnits)
		}
		if !r.UtilizationValid {
			t.Errorf("%s: utilization not populated", r.Name)
		}
	}
	if len(families) < 3 {
		t.Errorf("sheet covers %d families, want >= 3 (%v)", len(families), families)
	}
	if len(mappings) < 2 {
		t.Errorf("sheet covers %d mappings, want >= 2 (%v)", len(mappings), mappings)
	}
}

// TestDesignDeterministicAcrossWorkerCounts re-runs the acceptance
// request on servers with 1, 4, and 16 workers and requires
// byte-identical response documents.
func TestDesignDeterministicAcrossWorkerCounts(t *testing.T) {
	var want []byte
	for _, workers := range []int{1, 4, 16} {
		ts := newTestServer(t, Options{Workers: workers})
		status, body := postJSON(t, ts, "/v1/design", designBody)
		if status != http.StatusOK {
			t.Fatalf("workers=%d: status %d: %s", workers, status, body)
		}
		if want == nil {
			want = body
			continue
		}
		if !bytes.Equal(body, want) {
			t.Fatalf("design sheet differs at %d workers", workers)
		}
	}
}

// TestDesignCachedSecondRequest: the sync endpoint canonicalizes the
// body into the cache key, so an equivalent request hits the cache.
func TestDesignCachedSecondRequest(t *testing.T) {
	ts := newTestServer(t, Options{})
	small := `{"app": "milc", "ranks": 16, "constraints": {"max_candidates": 1}, "families": ["torus"]}`
	if status, body := postJSON(t, ts, "/v1/design", small); status != http.StatusOK {
		t.Fatalf("first POST: %d: %s", status, body)
	}
	before := metricsSnapshot(t, ts).Cache.Hits
	// Same request with fields reordered and defaults spelled out.
	same := `{"ranks": 16, "app": "MILC", "families": ["torus"], "constraints": {"max_candidates": 1}}`
	if status, body := postJSON(t, ts, "/v1/design", same); status != http.StatusOK {
		t.Fatalf("second POST: %d: %s", status, body)
	}
	if after := metricsSnapshot(t, ts).Cache.Hits; after != before+1 {
		t.Fatalf("cache hits %d -> %d, want one design cache hit", before, after)
	}
}

// TestDesignValidationErrors walks the 400 table: constraint mistakes
// return listing-style errors, never a panic or an empty sheet.
func TestDesignValidationErrors(t *testing.T) {
	ts := newTestServer(t, Options{})
	cases := []struct {
		name string
		body string
		want string
	}{
		{"bad json", `{"app": `, "bad design request body"},
		{"unknown field", `{"app": "milc", "ranks": 8, "radix": 3}`, "bad design request body"},
		{"non-positive ranks", `{"app": "milc", "ranks": 0}`, "non-positive node count"},
		{"negative ranks", `{"app": "milc", "ranks": -4}`, "non-positive node count"},
		{"tiny radix", `{"app": "milc", "ranks": 8, "constraints": {"max_radix": 2}}`, "max_radix 2 too small"},
		{"empty families", `{"app": "milc", "ranks": 8, "families": []}`, "empty candidate set"},
		{"unknown family", `{"app": "milc", "ranks": 8, "families": ["clos"]}`, "unknown family"},
		{"unknown mapping", `{"app": "milc", "ranks": 8, "mappings": ["anneal"]}`, "unknown mapping"},
		{"unknown app", `{"app": "doom", "ranks": 8}`, "unknown application"},
		{"infeasible", `{"app": "milc", "ranks": 8, "families": ["torus"], "constraints": {"max_switches": 1}}`, "no feasible candidates"},
	}
	for _, endpoint := range []string{"/v1/design", "/v1/design/jobs"} {
		for _, tc := range cases {
			status, body := postJSON(t, ts, endpoint, tc.body)
			if tc.name == "infeasible" && endpoint == "/v1/design/jobs" {
				continue // infeasibility is discovered by the running job, not at submit
			}
			if status != http.StatusBadRequest {
				t.Errorf("%s %s: status %d, want 400 (%s)", endpoint, tc.name, status, body)
				continue
			}
			if !strings.Contains(string(body), tc.want) {
				t.Errorf("%s %s: body %s does not mention %q", endpoint, tc.name, body, tc.want)
			}
		}
	}
}

// TestDesignHonoursServerMaxRanks: the server's rank cap bounds every
// design surface. A node count above it is a 400 from the synchronous
// search, the trace upload and job submission alike.
func TestDesignHonoursServerMaxRanks(t *testing.T) {
	ts := newTestServer(t, Options{Analysis: core.Options{MaxRanks: 64}})
	const want = "core: 512 ranks, outside [1, 64] (MaxRanks)"
	for _, endpoint := range []string{"/v1/design", "/v1/design/jobs"} {
		status, body := postJSON(t, ts, endpoint, `{"app": "milc", "ranks": 512}`)
		if status != http.StatusBadRequest || !strings.Contains(string(body), want) {
			t.Errorf("%s milc/512: status %d (%s), want 400 naming the cap", endpoint, status, body)
		}
	}
	tr := &trace.Trace{
		Meta:   trace.Meta{App: "uploaded", Ranks: 512, WallTime: 1},
		Events: []trace.Event{{Rank: 0, Op: trace.OpSend, Peer: 1, Root: -1, Bytes: 4096, End: 10}},
	}
	var buf bytes.Buffer
	if err := trace.WriteTrace(&buf, tr); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/design/trace", "application/octet-stream", &buf)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), want) {
		t.Errorf("/v1/design/trace 512 ranks: status %d (%s), want 400 naming the cap", resp.StatusCode, body)
	}
}

// Score weights that are not finite, or that overflow a score, are a 400
// from the trace upload and the synchronous search, and fail a job whose
// status the listing and the poll still serve. They used to run the
// search and answer 500 (json: unsupported value) from then on.
func TestDesignRefusesNonFiniteWeights(t *testing.T) {
	ts := newTestServer(t, Options{})
	tr := &trace.Trace{
		Meta:   trace.Meta{App: "uploaded", Ranks: 8, WallTime: 1},
		Events: []trace.Event{{Rank: 0, Op: trace.OpSend, Peer: 1, Root: -1, Bytes: 4096, End: 10}},
	}
	for _, w := range []string{"NaN", "Inf", "-Inf"} {
		var buf bytes.Buffer
		if err := trace.WriteTrace(&buf, tr); err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(ts.URL+"/v1/design/trace?families=torus&candidates=1&whops="+w, "application/octet-stream", &buf)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "must be finite") {
			t.Errorf("/v1/design/trace whops=%s: status %d (%s), want 400", w, resp.StatusCode, body)
		}
	}

	const huge = `{"app": "milc", "ranks": 8, "families": ["torus"], "constraints": {"max_candidates": 1},
	  "weights": {"hops": 1e308, "makespan": 1e308}}`
	if status, body := postJSON(t, ts, "/v1/design", huge); status != http.StatusBadRequest || !strings.Contains(string(body), "overflow") {
		t.Errorf("/v1/design with 1e308 weights: status %d (%s), want 400", status, body)
	}
	status, body := postJSON(t, ts, "/v1/design/jobs", huge)
	if status != http.StatusAccepted {
		t.Fatalf("submit: status %d: %s", status, body)
	}
	var st design.Status
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	path := "/v1/design/jobs/" + st.ID
	for deadline := time.Now().Add(30 * time.Second); st.State == design.StateRunning; time.Sleep(2 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("job did not finish")
		}
		if err := json.Unmarshal(getOK(t, ts, path), &st); err != nil {
			t.Fatal(err)
		}
	}
	if st.State != design.StateFailed || !strings.Contains(st.Error, "overflow") {
		t.Errorf("job with 1e308 weights ended %s (%q), want failed naming the overflow", st.State, st.Error)
	}
	getOK(t, ts, "/v1/design/jobs")
}

// TestDesignJobLifecycleHTTP drives the async flow end to end: submit
// returns 202 with a Location, polls report monotonic progress, the
// terminal poll carries the sheet, and the run lands in the span ring.
func TestDesignJobLifecycleHTTP(t *testing.T) {
	ts := newTestServer(t, Options{Workers: 4})
	status, body := postJSON(t, ts, "/v1/design/jobs",
		`{"app": "milc", "ranks": 64, "constraints": {"max_candidates": 2}}`)
	if status != http.StatusAccepted {
		t.Fatalf("submit: status %d: %s", status, body)
	}
	var st design.Status
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.ID == "" || st.State != design.StateRunning {
		t.Fatalf("submit status %+v", st)
	}

	path := "/v1/design/jobs/" + st.ID
	last := -1
	deadline := time.Now().Add(30 * time.Second)
	for {
		var poll design.Status
		if err := json.Unmarshal(getOK(t, ts, path), &poll); err != nil {
			t.Fatal(err)
		}
		if poll.Done < last {
			t.Fatalf("progress went backwards: %d after %d", poll.Done, last)
		}
		last = poll.Done
		if poll.State != design.StateRunning {
			st = poll
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job did not finish")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if st.State != design.StateDone {
		t.Fatalf("job ended %s: %s", st.State, st.Error)
	}
	if st.Sheet == nil || len(st.Sheet.Rows) == 0 {
		t.Fatal("done job has no sheet")
	}
	if st.Done != st.Total || st.Total == 0 {
		t.Fatalf("terminal progress %d/%d", st.Done, st.Total)
	}

	// The job's search ran under a root span recorded in the ring.
	runs := getOK(t, ts, "/v1/debug/runs")
	if !strings.Contains(string(runs), "design?app=milc") {
		t.Errorf("span ring does not show the design job run: %s", runs)
	}
	// And the job appears in the listing.
	var list []design.Status
	if err := json.Unmarshal(getOK(t, ts, "/v1/design/jobs"), &list); err != nil {
		t.Fatal(err)
	}
	if len(list) != 1 || list[0].ID != st.ID {
		t.Fatalf("job listing %+v", list)
	}
}

// TestDesignJobCancelHTTP cancels a job and checks the terminal state
// plus the 404 for unknown IDs.
func TestDesignJobCancelHTTP(t *testing.T) {
	ts := newTestServer(t, Options{Workers: 2})
	status, body := postJSON(t, ts, "/v1/design/jobs",
		`{"app": "milc", "ranks": 512}`)
	if status != http.StatusAccepted {
		t.Fatalf("submit: status %d: %s", status, body)
	}
	var st design.Status
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}

	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/design/jobs/"+st.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel: status %d", resp.StatusCode)
	}

	deadline := time.Now().Add(30 * time.Second)
	for {
		var poll design.Status
		if err := json.Unmarshal(getOK(t, ts, "/v1/design/jobs/"+st.ID), &poll); err != nil {
			t.Fatal(err)
		}
		if poll.State != design.StateRunning {
			if poll.State != design.StateCanceled && poll.State != design.StateDone {
				t.Fatalf("job ended %s: %s", poll.State, poll.Error)
			}
			// A very fast search may finish before the cancel lands;
			// both terminal states are acceptable, but a canceled job
			// must not carry a sheet.
			if poll.State == design.StateCanceled && poll.Sheet != nil {
				t.Fatal("canceled job carries a sheet")
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job did not reach a terminal state after cancel")
		}
		time.Sleep(2 * time.Millisecond)
	}

	if code, body := get(t, ts, "/v1/design/jobs/nope"); code != http.StatusNotFound {
		t.Fatalf("unknown job: status %d: %s", code, body)
	}
}

// TestDesignTraceUpload designs against an uploaded binary trace with
// query-parameter constraints.
func TestDesignTraceUpload(t *testing.T) {
	ts := newTestServer(t, Options{})
	tr := &trace.Trace{
		Meta: trace.Meta{App: "uploaded", Ranks: 8, WallTime: 1},
		Events: []trace.Event{
			{Rank: 0, Op: trace.OpSend, Peer: 1, Root: -1, Bytes: 4096, End: 10},
			{Rank: 1, Op: trace.OpSend, Peer: 2, Root: -1, Bytes: 4096, Start: 10, End: 20},
		},
	}
	var buf bytes.Buffer
	if err := trace.WriteTrace(&buf, tr); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/design/trace?families=torus,fattree&candidates=1", "application/octet-stream", &buf)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sheet design.Sheet
	if err := json.NewDecoder(resp.Body).Decode(&sheet); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("design/trace: status %d", resp.StatusCode)
	}
	if sheet.App != "uploaded" || sheet.Ranks != 8 {
		t.Fatalf("sheet header %s@%d, want uploaded@8", sheet.App, sheet.Ranks)
	}
	families := map[string]bool{}
	for _, r := range sheet.Rows {
		families[r.Family] = true
	}
	if !families["torus"] || !families["fattree"] {
		t.Fatalf("trace design families %v", families)
	}

	// Garbage body is a 400.
	resp2, err := http.Post(ts.URL+"/v1/design/trace", "application/octet-stream", strings.NewReader("not a trace"))
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusBadRequest {
		t.Fatalf("garbage trace: status %d", resp2.StatusCode)
	}
}

// TestDesignMetricsCounters: design searches feed the design pipeline
// counters and the job gauges appear in the Prometheus exposition.
func TestDesignMetricsCounters(t *testing.T) {
	ts := newTestServer(t, Options{})
	small := `{"app": "milc", "ranks": 16, "constraints": {"max_candidates": 1}, "families": ["torus"]}`
	if status, body := postJSON(t, ts, "/v1/design", small); status != http.StatusOK {
		t.Fatalf("POST: %d: %s", status, body)
	}
	var doc struct {
		Pipeline map[string]int64 `json:"pipeline"`
	}
	if err := json.Unmarshal(getOK(t, ts, "/metrics"), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Pipeline["design_configs"] == 0 || doc.Pipeline["design_candidates"] == 0 {
		t.Fatalf("design pipeline counters not absorbed: %+v", doc.Pipeline)
	}
	prom := string(getOK(t, ts, "/metrics?format=prom"))
	for _, series := range []string{"netloc_design_jobs_retained", "netloc_design_jobs_submitted_total"} {
		if !strings.Contains(prom, series) {
			t.Errorf("prometheus exposition missing %s", series)
		}
	}
}

// spaces is an endless body of JSON whitespace.
type spaces struct{}

func (spaces) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = ' '
	}
	return len(p), nil
}

// TestBodyCapBoundsJSONRequests pins the JSON body cap, 1 MiB, far
// below the 64 MiB trace upload cap: a design or congestion body of
// whitespace one byte past it answers 400 naming the cap and runs no
// computation, while a design body of exactly 1 MiB is read whole and
// answers its validation error, also before any computation runs.
func TestBodyCapBoundsJSONRequests(t *testing.T) {
	s := New(Options{})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	before := metricsSnapshot(t, ts)
	for _, path := range []string{"/v1/design", "/v1/congestion"} {
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, io.LimitReader(spaces{}, 1<<20+1)))
		if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "request body too large") {
			t.Errorf("%s body one byte past the cap: status %d %s, want 400 naming the cap", path, rec.Code, rec.Body)
		}
	}
	if after := metricsSnapshot(t, ts); after.Compute.Executed != before.Compute.Executed {
		t.Errorf("an oversized body ran a computation: executed %d -> %d", before.Compute.Executed, after.Compute.Executed)
	}
	invalid := `{"app":"LULESH","ranks":0}`
	atCap := io.MultiReader(io.LimitReader(spaces{}, 1<<20-int64(len(invalid))), strings.NewReader(invalid))
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/design", atCap))
	if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "non-positive node count 0") {
		t.Errorf("design body at the cap: status %d %s, want 400 naming the rank count", rec.Code, rec.Body)
	}
	if after := metricsSnapshot(t, ts); after.Compute.Executed != before.Compute.Executed {
		t.Errorf("an invalid design body ran a computation: executed %d -> %d", before.Compute.Executed, after.Compute.Executed)
	}
}
