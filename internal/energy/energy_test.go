package energy

import (
	"math"
	"testing"

	"netloc/internal/comm"
	"netloc/internal/mapping"
	"netloc/internal/netmodel"
	"netloc/internal/topology"
)

func runModel(t *testing.T) (*netmodel.Result, int, float64, float64) {
	t.Helper()
	topo, err := topology.NewTorus(2, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	b, err := comm.NewBuilder(8, 0)
	if err != nil {
		t.Fatal(err)
	}
	// One 1-hop message of 12 MB.
	if err := b.Add(0, 1, 12_000_000); err != nil {
		t.Fatal(err)
	}
	m := b.Matrix()
	mp, err := mapping.Consecutive(8, 8)
	if err != nil {
		t.Fatal(err)
	}
	const bw = 12e6 // 12 MB/s: the message busies its link for 1 s
	const wall = 10.0
	res, err := netmodel.Run(m, topo, mp, netmodel.Options{
		BandwidthBytesPerSec: bw, WallTime: wall, TrackLinks: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res, len(topo.Links()), wall, bw
}

func TestFromResultBasics(t *testing.T) {
	res, links, wall, bw := runModel(t)
	e, err := FromResult(res, links, wall, bw, Params{})
	if err != nil {
		t.Fatal(err)
	}
	// 12 links x 2 W x 10 s = 240 J static.
	if e.StaticJoules != 240 {
		t.Fatalf("static = %v, want 240", e.StaticJoules)
	}
	// Only 1 link used: 20 J.
	if e.StaticUsedJoules != 20 {
		t.Fatalf("static used = %v, want 20", e.StaticUsedJoules)
	}
	// Dynamic: 12 MB x 1 hop x 5e-9 J/B = 0.06 J.
	if math.Abs(e.DynamicJoules-0.06) > 1e-9 {
		t.Fatalf("dynamic = %v, want 0.06", e.DynamicJoules)
	}
	if math.Abs(e.TotalJoules-240.06) > 1e-9 {
		t.Fatalf("total = %v", e.TotalJoules)
	}
	// Busy time: 1 link-second of 120 total link-seconds; idle share
	// (240 - 2)/240.06.
	wantIdle := (240.0 - 2.0) / 240.06
	if math.Abs(e.IdleShare-wantIdle) > 1e-9 {
		t.Fatalf("idle share = %v, want %v", e.IdleShare, wantIdle)
	}
}

func TestFromResultBandwidthScaling(t *testing.T) {
	res, links, wall, bw := runModel(t)
	e, err := FromResult(res, links, wall, bw, Params{})
	if err != nil {
		t.Fatal(err)
	}
	// Busiest link: 12 MB over 10 s at 12 MB/s capacity -> needs 10% of
	// the bandwidth.
	if math.Abs(e.ScaleFraction-0.1) > 1e-9 {
		t.Fatalf("scale fraction = %v, want 0.1", e.ScaleFraction)
	}
	// Static power scales with f^2 = 0.01: 2.4 J + 0.06 J dynamic.
	if math.Abs(e.ScaledJoules-(240*0.01+0.06)) > 1e-9 {
		t.Fatalf("scaled = %v", e.ScaledJoules)
	}
	if e.ScaledJoules >= e.TotalJoules {
		t.Fatal("scaling should save energy at low utilization")
	}
}

func TestFromResultCustomParams(t *testing.T) {
	res, links, wall, bw := runModel(t)
	e, err := FromResult(res, links, wall, bw, Params{
		StaticWattsPerLink:   1,
		DynamicJoulesPerByte: 1e-9,
		FrequencyExponent:    3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if e.StaticJoules != 120 {
		t.Fatalf("static = %v, want 120", e.StaticJoules)
	}
	if math.Abs(e.ScaledJoules-(120*0.001+0.012)) > 1e-9 {
		t.Fatalf("scaled with cubic exponent = %v", e.ScaledJoules)
	}
}

func TestFromResultValidation(t *testing.T) {
	res, links, wall, bw := runModel(t)
	if _, err := FromResult(res, links, 0, bw, Params{}); err == nil {
		t.Fatal("zero wall time accepted")
	}
	if _, err := FromResult(res, links, wall, 0, Params{}); err == nil {
		t.Fatal("zero bandwidth accepted")
	}
	if _, err := FromResult(res, 0, wall, bw, Params{}); err == nil {
		t.Fatal("total links below used accepted")
	}
	noLinks := &netmodel.Result{}
	if _, err := FromResult(noLinks, 10, wall, bw, Params{}); err == nil {
		t.Fatal("missing link accounting accepted")
	}
}

func TestScaleFractionClamped(t *testing.T) {
	// A link busier than the wall time allows clamps the fraction to 1.
	topo, err := topology.NewTorus(2, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := comm.NewBuilder(2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Add(0, 1, 1000); err != nil {
		t.Fatal(err)
	}
	m := b.Matrix()
	mp, err := mapping.Consecutive(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	res, err := netmodel.Run(m, topo, mp, netmodel.Options{
		BandwidthBytesPerSec: 10, WallTime: 1, TrackLinks: true, // 1000 B over a 10 B/s link
	})
	if err != nil {
		t.Fatal(err)
	}
	e, err := FromResult(res, 1, 1, 10, Params{})
	if err != nil {
		t.Fatal(err)
	}
	if e.ScaleFraction != 1 {
		t.Fatalf("fraction = %v, want 1 (clamped)", e.ScaleFraction)
	}
	if e.ScaledJoules != e.TotalJoules {
		t.Fatalf("no savings possible: %v vs %v", e.ScaledJoules, e.TotalJoules)
	}
}

func TestPowHelper(t *testing.T) {
	if pow(0.5, 1) != 0.5 || pow(0.5, 2) != 0.25 || pow(0.5, 3) != 0.125 {
		t.Fatal("integer pow wrong")
	}
	// Fractional exponent path is a coarse interpolation; just check
	// monotonicity and range.
	v := pow(0.5, 2.5)
	if v <= 0 || v > 0.25 {
		t.Fatalf("pow(0.5, 2.5) = %v", v)
	}
}
