package congest

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"netloc/internal/simnet"
	"netloc/internal/topology"
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

// Tolerance oracle (no contention): message m arrives at a_m + hops_m·L,
// where a_m = release + (hops_m - 1)·h + serial and h is the head
// latency per hop. The makespan is then the upper envelope of these
// lines, and the tolerance has a closed form: L* = min over m of
// (T + r0 - a_m) / hops_m, for the threshold T and the first release r0.
// The bisection's final bracket [PerHopSeconds, PerHopSeconds + width)
// must contain it.
func TestLatencyToleranceMatchesClosedForm(t *testing.T) {
	topo := torus(t, 4, 4, 4)
	mp := consecutive(t, 64, 64)
	// The 1 MiB send sets the base makespan, but the 4-hop send released
	// late gains latency faster and sets the tolerance.
	sends := []send{
		{src: 0, dst: 2, bytes: 1 << 20, start: 0},
		{src: 5, dst: 13, bytes: 64 << 10, start: 1000},
		{src: 22, dst: 43, bytes: 4096, start: 5000},
		{src: 48, dst: 18, bytes: 256 << 10, start: 64000},
	}
	// Pairwise link-disjoint routes: nothing can contend.
	owner := map[int]int{}
	for i, s := range sends {
		path, err := topo.Route(s.src, s.dst, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, li := range path {
			if j, ok := owner[li]; ok {
				t.Fatalf("sends %d and %d share link %d", j, i, li)
			}
			owner[li] = i
		}
	}
	tol, err := LatencyTolerance(sendTrace(64, sends), topo, mp, Options{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if tol.Saturated {
		t.Fatalf("sweep saturated: %+v", tol)
	}
	opts, err := Options{}.normalize()
	if err != nil {
		t.Fatal(err)
	}
	bw := opts.BandwidthBytesPerSec
	h := float64(opts.PacketBytes) / bw
	threshold := tol.BaseMakespan * (1 + tol.GrowthPct/100)
	r0 := float64(sends[0].start) / 1e9
	want := math.Inf(1)
	for _, s := range sends {
		hops := float64(topo.HopCount(s.src, s.dst))
		a := float64(s.start)/1e9 + (hops-1)*h + float64(s.bytes)/bw
		want = min(want, (threshold+r0-a)/hops)
	}
	// Doubling from h stops at the first h·2^k above L*, leaving
	// [h·2^(k-1), h·2^k), or [0, h), for the bisections to narrow.
	lo, hi := 0.0, h
	for hi <= want {
		lo, hi = hi, 2*hi
	}
	width := (hi - lo) / (1 << toleranceBisections)
	if !(tol.PerHopSeconds <= want && want < tol.PerHopSeconds+width) {
		t.Errorf("closed-form tolerance %.6g s outside the final bracket [%.6g, %.6g)",
			want, tol.PerHopSeconds, tol.PerHopSeconds+width)
	}
}

// The sweep's promise, as callers use it: every added latency up to the
// reported PerHopSeconds keeps the makespan within the threshold. That
// is weaker than the monotone makespan the bisection assumes, which
// FIFO contention breaks (BigFFT/100's makespan drops as latency grows
// on every family), and it is checked here for the minimal policy, the
// one the congestion study sweeps. Under UGAL it fails on BigFFT/100;
// see LatencyTolerance.
func TestToleranceHoldsBelowReportedValue(t *testing.T) {
	const points = 32
	for _, c := range []struct {
		app   string
		ranks int
	}{{"LULESH", 64}, {"Crystal Router", 100}, {"BigFFT", 100}} {
		tr := genTrace(t, c.app, c.ranks)
		for _, topo := range []topology.Topology{studyTorus(t, c.ranks), fattree(t, c.ranks), dragonfly(t, c.ranks)} {
			mp := consecutive(t, c.ranks, topo.Nodes())
			tol, err := LatencyTolerance(tr, topo, mp, Options{}, 0)
			if err != nil {
				t.Fatal(err)
			}
			threshold := tol.BaseMakespan * (1 + tol.GrowthPct/100)
			w, err := simnet.Prepare(tr)
			if err != nil {
				t.Fatal(err)
			}
			r := routed(t, w, topo, PolicyMinimal)
			for i := 0; i <= points; i++ {
				extra := tol.PerHopSeconds * float64(i) / points
				if m := r.makespan(extra); m > threshold {
					t.Errorf("%s/%d on %s: makespan %.6g s at %.6g s per hop (%d/%d of the reported %.6g) exceeds the threshold %.6g",
						c.app, c.ranks, topo.Kind(), m, extra, i, points, tol.PerHopSeconds, threshold)
				}
			}
		}
	}
}
