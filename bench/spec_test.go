package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"testing"
)

// spec is BENCHMARK.json.
type spec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readSpec(root string) (*spec, error) {
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &s, nil
}

// BENCHMARK.json and the code name the same workloads and metrics.
func TestSpecMatchesCode(t *testing.T) {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	sp, err := readSpec(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(sp.Workloads) != len(workloadList) {
		t.Fatalf("BENCHMARK.json has %d workloads, the code %d", len(sp.Workloads), len(workloadList))
	}
	for i, w := range sp.Workloads {
		if w.Name != workloadList[i].name || w.Why != workloadList[i].why {
			t.Errorf("workload %d: BENCHMARK.json %q, code %q", i, w.Name, workloadList[i].name)
		}
	}
	if !reflect.DeepEqual(sp.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\n json %+v\n code %+v", sp.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(sp.PerLayer, perLayer) {
		t.Errorf("per_layer differs between BENCHMARK.json and the code")
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !name.MatchString(d.Name) || seen[d.Name] {
			t.Errorf("metric name %q is illegal or repeated", d.Name)
		}
		seen[d.Name] = true
	}
	for _, p := range congestPolicies {
		if !seen["congest.simulate_s."+p] {
			t.Errorf("no per-layer metric for congest policy %s", p)
		}
	}
}
