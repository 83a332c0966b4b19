package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"

	"netloc/internal/congest"
	"netloc/internal/core"
)

// smallCongestionBody keeps the endpoint tests quick: one workload, the
// baseline policy, tolerance sweep disabled.
const smallCongestionBody = `{"workloads":[{"app":"LULESH","ranks":64}],"policies":["minimal"],"growth_pct":-1}`

func TestCongestionEndpoint(t *testing.T) {
	ts := newTestServer(t, Options{})
	status, body := postJSON(t, ts, "/v1/congestion", smallCongestionBody)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, body)
	}
	var res CongestionResult
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d, want 3 (one per topology)", len(res.Rows))
	}
	// The response echoes the canonicalized request: the explicit policy
	// list and the disabled sweep survive as sent.
	if len(res.Policies) != 1 || res.Policies[0] != congest.PolicyMinimal {
		t.Errorf("policies = %v", res.Policies)
	}
	if res.GrowthPct >= 0 {
		t.Errorf("growth_pct = %g, want negative (sweep disabled)", res.GrowthPct)
	}
	topos := map[string]bool{}
	for _, r := range res.Rows {
		if r.App != "LULESH" || r.Ranks != 64 || r.Policy != congest.PolicyMinimal {
			t.Errorf("unexpected row %s/%d %s/%s", r.App, r.Ranks, r.Topology, r.Policy)
		}
		if r.Messages == 0 || r.Makespan <= 0 {
			t.Errorf("row %s: empty stats", r.Topology)
		}
		if r.Tolerance != nil {
			t.Errorf("row %s: tolerance present with sweep disabled", r.Topology)
		}
		topos[r.Topology] = true
	}
	if !topos["torus"] || !topos["fattree"] || !topos["dragonfly"] {
		t.Errorf("topologies covered: %v", topos)
	}
}

// TestCongestionFamiliesSelect runs the grid on one of the extreme-scale
// families added beyond the paper's trio: the rows replace (not extend)
// the default topologies and the echo names what actually ran.
func TestCongestionFamiliesSelect(t *testing.T) {
	ts := newTestServer(t, Options{})
	body := `{"workloads":[{"app":"LULESH","ranks":64}],"families":["slimfly"],"policies":["minimal"],"growth_pct":-1}`
	status, raw := postJSON(t, ts, "/v1/congestion", body)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, raw)
	}
	var res CongestionResult
	if err := json.Unmarshal(raw, &res); err != nil {
		t.Fatal(err)
	}
	if len(res.Families) != 1 || res.Families[0] != "slimfly" {
		t.Errorf("families echo = %v", res.Families)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %d, want 1", len(res.Rows))
	}
	if r := res.Rows[0]; r.Topology != "slimfly" || r.Messages == 0 || r.Makespan <= 0 {
		t.Errorf("unexpected row %s: %+v", r.Topology, r.Stats)
	}
}

// TestCongestionDefaultsApplied checks an empty body runs the default
// grid with the default threshold, and the baseline rows carry sweeps.
func TestCongestionDefaultsApplied(t *testing.T) {
	ts := newTestServer(t, Options{Analysis: core.Options{MaxRanks: 64}})
	status, body := postJSON(t, ts, "/v1/congestion", `{}`)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, body)
	}
	var res CongestionResult
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatal(err)
	}
	if res.GrowthPct != congest.DefaultGrowthPct {
		t.Errorf("growth_pct = %g, want default %g", res.GrowthPct, congest.DefaultGrowthPct)
	}
	if len(res.Policies) != len(congest.Policies()) {
		t.Errorf("policies = %v, want all", res.Policies)
	}
	if len(res.Workloads) == 0 || len(res.Rows) == 0 {
		t.Fatalf("empty default grid: %d workloads, %d rows", len(res.Workloads), len(res.Rows))
	}
	for _, r := range res.Rows {
		// The server's MaxRanks cap bounded the grid.
		if r.Ranks > 64 {
			t.Errorf("row %s/%d above the rank cap", r.App, r.Ranks)
		}
		if r.Policy == congest.PolicyMinimal && r.Tolerance == nil {
			t.Errorf("baseline row %s/%s missing tolerance", r.App, r.Topology)
		}
	}
}

func TestCongestionCachedAndMetered(t *testing.T) {
	ts := newTestServer(t, Options{})
	if _, err := http.Post(ts.URL+"/v1/congestion", "application/json", strings.NewReader(smallCongestionBody)); err != nil {
		t.Fatal(err)
	}
	before := metricsSnapshot(t, ts)
	status, first := postJSON(t, ts, "/v1/congestion", smallCongestionBody)
	if status != http.StatusOK {
		t.Fatalf("status %d", status)
	}
	after := metricsSnapshot(t, ts)
	if after.Cache.Hits <= before.Cache.Hits {
		t.Errorf("repeat request missed the cache: hits %d -> %d", before.Cache.Hits, after.Cache.Hits)
	}
	if after.Compute.Executed != before.Compute.Executed {
		t.Errorf("repeat request recomputed: executed %d -> %d", before.Compute.Executed, after.Compute.Executed)
	}
	status, second := postJSON(t, ts, "/v1/congestion", smallCongestionBody)
	if status != http.StatusOK {
		t.Fatalf("status %d", status)
	}
	if !bytes.Equal(first, second) {
		t.Error("cached response differs from the computed one")
	}

	// The run's work counts landed in the congest counters.
	var doc struct {
		Congest map[string]int64 `json:"congest"`
	}
	if err := json.Unmarshal(getOK(t, ts, "/metrics"), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Congest["sims"] == 0 || doc.Congest["messages"] == 0 {
		t.Errorf("congest counters not absorbed: %v", doc.Congest)
	}
	// The sweep was disabled, so no probes ran.
	if doc.Congest["probes"] != 0 {
		t.Errorf("probes = %d with the sweep disabled", doc.Congest["probes"])
	}
	prom := getOK(t, ts, "/metrics?format=prom")
	if !strings.Contains(string(prom), "netloc_congest_sims_total") {
		t.Error("netloc_congest_sims_total missing from the Prometheus exposition")
	}
}

func TestCongestionRequestErrors(t *testing.T) {
	ts := newTestServer(t, Options{})
	cases := []struct {
		name   string
		body   string
		status int
	}{
		{"unknown field", `{"polices":["minimal"]}`, http.StatusBadRequest},
		{"bad json", `{`, http.StatusBadRequest},
		{"unknown policy", `{"policies":["psychic"]}`, http.StatusBadRequest},
		{"unknown family", `{"families":["moebius"]}`, http.StatusBadRequest},
		{"unknown app", `{"workloads":[{"app":"NoSuchApp","ranks":64}]}`, http.StatusNotFound},
		{"zero ranks", `{"workloads":[{"app":"LULESH","ranks":0}]}`, http.StatusBadRequest},
		{"negative max_ranks", `{"max_ranks":-5}`, http.StatusBadRequest},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			status, body := postJSON(t, ts, "/v1/congestion", c.body)
			if status != c.status {
				t.Fatalf("status %d, want %d: %s", status, c.status, body)
			}
			if !bytes.Contains(body, []byte("error")) {
				t.Errorf("no error field in %s", body)
			}
		})
	}
	// GET on the POST route is a 405 from the mux.
	status, _ := get(t, ts, "/v1/congestion")
	if status != http.StatusMethodNotAllowed {
		t.Errorf("GET status %d, want 405", status)
	}
}

// max_ranks lowers the server's cap but cannot lift it.
func TestCongestionMaxRanksCannotLiftServerCap(t *testing.T) {
	ts := newTestServer(t, Options{Analysis: core.Options{MaxRanks: 10}})
	const grid = `"workloads":[{"app":"Crystal Router","ranks":10},{"app":"LULESH","ranks":64}],` +
		`"families":["torus"],"policies":["minimal"],"growth_pct":-1`
	for maxRanks, want := range map[int]int{0: 10, 1000: 10, 9: 0} {
		status, body := postJSON(t, ts, "/v1/congestion", fmt.Sprintf(`{%s,"max_ranks":%d}`, grid, maxRanks))
		if status != http.StatusOK {
			t.Fatalf("max_ranks %d: status %d: %s", maxRanks, status, body)
		}
		var res CongestionResult
		if err := json.Unmarshal(body, &res); err != nil {
			t.Fatal(err)
		}
		largest := 0
		for _, r := range res.Rows {
			largest = max(largest, r.Ranks)
		}
		if largest != want {
			t.Errorf("max_ranks %d on a 10-rank server: largest row %d ranks, want %d", maxRanks, largest, want)
		}
	}
}
