package main

import (
	"bytes"
	"strings"
	"testing"
)

func scaled(xs []float64, f float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * f
	}
	return out
}

func TestVerdict(t *testing.T) {
	lower := metricDef{Name: "run_s", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "req_per_s", Better: "higher", Bound: 0.10}
	layer := metricDef{Name: "service.req_p99_ms", Better: "lower"}
	steady := []float64{1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.01}
	// Quartiles of wide: 0.8 and 1.2 around a median of 1, a 40% spread.
	wide := []float64{0.7, 1.3, 0.8, 1.2, 0.9, 1.1, 1.0, 1.0, 0.75, 1.25}
	for _, c := range []struct {
		name   string
		d      metricDef
		parent []float64
		change []float64
		want   string
	}{
		{"same runs", lower, steady, steady, unchanged},
		{"3% slower", lower, steady, scaled(steady, 1.03), unchanged},
		{"15% slower", lower, steady, scaled(steady, 1.15), worse},
		{"5% faster in every pair", lower, steady, scaled(steady, 0.95), better},
		{"faster median, but wins only half the pairs", lower, steady,
			[]float64{0.9, 1.05, 0.9, 1.05, 0.9, 1.05, 0.9, 1.05, 0.9, 1.05}, unchanged},
		{"gain smaller than the parent's spread", lower, steady, scaled(steady, 0.995), unchanged},
		{"spread wider than the bound", lower, wide, scaled(wide, 0.97), unresolved},
		{"wide spread, every change run better", lower, wide, scaled(steady, 0.5), better},
		{"wide spread, every change run far worse", lower, wide, scaled(steady, 2), worse},
		{"higher is better: 15% more", higher, steady, scaled(steady, 1.15), better},
		{"higher is better: 15% less", higher, steady, scaled(steady, 0.85), worse},
		{"no bound: 5% slower in every pair", layer, steady, scaled(steady, 1.05), worse},
		{"no bound: 5% faster in every pair", layer, steady, scaled(steady, 0.95), better},
		{"no bound: slower median, but loses only half the pairs", layer, steady,
			[]float64{1.1, 0.95, 1.1, 0.95, 1.1, 0.95, 1.1, 0.95, 1.1, 0.95}, unchanged},
		{"no bound: 30% slower, inside a 40% spread", layer, wide, scaled(wide, 1.3), unchanged},
		{"no bound: 50% slower, beyond a 40% spread", layer, wide, scaled(wide, 1.5), worse},
	} {
		if got := verdict(c.d, c.parent, c.change); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
}

func TestCompareSetsReportsRegressions(t *testing.T) {
	set := func(runS ...float64) *resultSet {
		wr := workloadRuns{Name: "design"}
		for _, v := range runS {
			wr.Runs = append(wr.Runs, runResult{Correct: true, Metrics: map[string]float64{"run_s": v}})
		}
		return &resultSet{Workloads: []workloadRuns{wr}}
	}
	defs := []metricDef{{Name: "run_s", Better: "lower", Bound: 0.10}}
	parent := set(1, 1.01, 0.99, 1, 1.02)
	var out bytes.Buffer
	if code := compareSets(defs, parent, set(1, 1.01, 0.99, 1, 1.02), &out); code != 0 {
		t.Errorf("identical sets: exit %d\n%s", code, out.String())
	}
	out.Reset()
	if code := compareSets(defs, parent, set(1.3, 1.31, 1.29, 1.3, 1.32), &out); code != 1 {
		t.Errorf("30%% slower: exit %d, want 1", code)
	}
	if !strings.Contains(out.String(), "regressions: 1") {
		t.Errorf("summary does not count the regression:\n%s", out.String())
	}
}
