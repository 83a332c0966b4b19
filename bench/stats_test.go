package main

import (
	"math"
	"testing"
)

func TestMedianAndMin(t *testing.T) {
	for _, c := range []struct {
		in       []float64
		med, low float64
	}{
		{[]float64{3}, 3, 3},
		{[]float64{4, 1, 3}, 3, 1},
		{[]float64{4, 1, 3, 2}, 2.5, 1},
	} {
		if got := median(c.in); got != c.med {
			t.Errorf("median(%v) = %v, want %v", c.in, got, c.med)
		}
		if got := minOf(c.in); got != c.low {
			t.Errorf("minOf(%v) = %v, want %v", c.in, got, c.low)
		}
	}
	if !math.IsNaN(median(nil)) || !math.IsNaN(minOf(nil)) {
		t.Error("empty input must give NaN")
	}
}

// The expected values are Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{3.5, 1.25, 9, 4, 7}, [3]float64{2.375, 4, 8}},
	} {
		q1, q2, q3 := quartiles(c.in)
		if got := [3]float64{q1, q2, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if v, ok := percentile(xs, 99); !ok || v != 990 {
		t.Errorf("p99 of 1..1000 = %v, %v; want 990, true", v, ok)
	}
	if _, ok := percentile(xs[:999], 99); ok {
		t.Error("p99 of 999 samples has only 9 beyond it and must be refused")
	}
	if v, ok := percentile(xs[:100], 90); !ok || v != 90 {
		t.Errorf("p90 of 1..100 = %v, %v; want 90, true", v, ok)
	}
	withFail := append(append([]float64(nil), xs...), math.Inf(1))
	if v, _ := percentile(withFail, 50); math.IsInf(v, 0) {
		t.Error("one failed request must not move the median to +Inf")
	}
	if _, ok := percentile(nil, 50); ok {
		t.Error("no samples, no percentile")
	}
}

// Set-up is the median round, per-unit metrics the best unit, and
// req_per_s the completed requests over the summed unit time.
func TestRunMetrics(t *testing.T) {
	s := samples{
		setup: []float64{3, 1, 2}, wall: []float64{1.2, 1.0, 1.3}, cpu: []float64{2.2, 2.0, 2.1},
		allocBytes: []float64{2e6, 2e6, 2e6}, allocObjects: []float64{3000, 3000, 3001}, rss: []float64{5e7, 4e7, 6e7},
		completed: 7,
	}
	want := map[string]float64{
		"setup_s": 2, "run_s": 1.0, "cpu_s": 2.0, "req_per_s": 2,
		"alloc_mb": 2, "allocs_k": 3, "max_rss_mb": 40,
	}
	got := s.metrics()
	for _, d := range endToEnd {
		if math.Abs(got[d.Name]-want[d.Name]) > 1e-12 {
			t.Errorf("%s = %v, want %v", d.Name, got[d.Name], want[d.Name])
		}
	}
}
