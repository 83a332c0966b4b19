package congest

import (
	"math"
	"reflect"
	"strings"
	"testing"
)

// The tolerance sweep's result must be internally consistent: the
// reported per-hop latency still satisfies the growth threshold, and
// doubling past it breaks it (unless the search saturated).
func TestLatencyToleranceBracketsThreshold(t *testing.T) {
	tr := genTrace(t, "LULESH", 64)
	topo := torus(t, 4, 4, 4)
	mp := consecutive(t, 64, 64)
	tol, err := LatencyTolerance(tr, topo, mp, Options{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if tol.GrowthPct != DefaultGrowthPct {
		t.Errorf("growth threshold = %g, want default %g", tol.GrowthPct, DefaultGrowthPct)
	}
	if tol.BaseMakespan <= 0 {
		t.Fatalf("base makespan = %g", tol.BaseMakespan)
	}
	if tol.PerHopSeconds <= 0 {
		t.Fatalf("tolerance = %g, want > 0 (a real workload absorbs some latency)", tol.PerHopSeconds)
	}
	if tol.Probes < 2 {
		t.Errorf("probes = %d, want at least base + one probe", tol.Probes)
	}
	threshold := tol.BaseMakespan * (1 + tol.GrowthPct/100)
	within, err := Simulate(tr, topo, mp, Options{ExtraHopLatency: tol.PerHopSeconds})
	if err != nil {
		t.Fatal(err)
	}
	if within.Makespan > threshold {
		t.Errorf("makespan at reported tolerance %.6g exceeds threshold: %.6g > %.6g",
			tol.PerHopSeconds, within.Makespan, threshold)
	}
	if !tol.Saturated {
		beyond, err := Simulate(tr, topo, mp, Options{ExtraHopLatency: tol.PerHopSeconds * 2})
		if err != nil {
			t.Fatal(err)
		}
		if beyond.Makespan <= threshold {
			t.Errorf("makespan at 2x tolerance still within threshold: %.6g <= %.6g",
				beyond.Makespan, threshold)
		}
	}
}

// The sweep is deterministic and rejects nonsense thresholds.
func TestLatencyToleranceDeterministic(t *testing.T) {
	tr := genTrace(t, "AMR_Miniapp", 64)
	topo := torus(t, 4, 4, 4)
	mp := consecutive(t, 64, 64)
	a, err := LatencyTolerance(tr, topo, mp, Options{Policy: PolicyECMP}, 10)
	if err != nil {
		t.Fatal(err)
	}
	b, err := LatencyTolerance(tr, topo, mp, Options{Policy: PolicyECMP}, 10)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("tolerance sweeps diverged: %+v vs %+v", a, b)
	}
	// A non-finite threshold would run the full sweep into a Tolerance
	// that json.Marshal refuses.
	for _, g := range []float64{-3, math.NaN(), math.Inf(1), math.Inf(-1)} {
		_, err := LatencyTolerance(tr, topo, mp, Options{}, g)
		if err == nil || !strings.Contains(err.Error(), "growth threshold") {
			t.Errorf("growth threshold %g: err = %v, want a growth threshold rejection", g, err)
		}
	}
}
