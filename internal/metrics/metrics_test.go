package metrics

import (
	"math"
	"testing"

	"netloc/internal/comm"
)

func newBuilder(t *testing.T, ranks int) *comm.Builder {
	t.Helper()
	b, err := comm.NewBuilder(ranks, 0)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func add(t *testing.T, b *comm.Builder, src, dst int, bytes uint64) {
	t.Helper()
	if err := b.Add(src, dst, bytes); err != nil {
		t.Fatal(err)
	}
}

func TestPeers(t *testing.T) {
	b := newBuilder(t, 6)
	add(t, b, 0, 1, 10)
	add(t, b, 0, 2, 10)
	add(t, b, 0, 3, 10)
	add(t, b, 1, 0, 10)
	m := b.Matrix()
	peak, per := Peers(m)
	if peak != 3 {
		t.Fatalf("peak = %d, want 3", peak)
	}
	if per[0] != 3 || per[1] != 1 || per[2] != 0 {
		t.Fatalf("perRank = %v", per)
	}
}

func TestPeersCountsDistinctDestinationsOnce(t *testing.T) {
	b := newBuilder(t, 4)
	add(t, b, 0, 1, 10)
	add(t, b, 0, 1, 20) // same pair again
	m := b.Matrix()
	peak, _ := Peers(m)
	if peak != 1 {
		t.Fatalf("peak = %d, want 1", peak)
	}
}

func TestRankDistanceNearestNeighbor(t *testing.T) {
	// Pure ±1 neighbor traffic: every rank's d90 is 1.
	b := newBuilder(t, 8)
	for r := 0; r < 8; r++ {
		if r+1 < 8 {
			add(t, b, r, r+1, 100)
		}
		if r-1 >= 0 {
			add(t, b, r, r-1, 100)
		}
	}
	m := b.Matrix()
	d, err := RankDistance(m, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if d != 1 {
		t.Fatalf("RankDistance = %v, want 1", d)
	}
	loc, err := RankLocality(m, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if loc != 100 {
		t.Fatalf("RankLocality = %v, want 100", loc)
	}
}

func TestRankDistanceCoverageRule(t *testing.T) {
	// Rank 0: 85% to rank 1 (d=1), 10% to rank 3 (d=3), 5% to rank 7 (d=7).
	// 90% coverage needs d=3.
	b := newBuilder(t, 8)
	add(t, b, 0, 1, 85)
	add(t, b, 0, 3, 10)
	add(t, b, 0, 7, 5)
	m := b.Matrix()
	d, err := RankDistance(m, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if d != 3 {
		t.Fatalf("RankDistance = %v, want 3", d)
	}
	// With full coverage the farthest partner counts.
	d, err = RankDistance(m, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if d != 7 {
		t.Fatalf("RankDistance(1.0) = %v, want 7", d)
	}
}

func TestRankDistanceAveragesOverRanks(t *testing.T) {
	b := newBuilder(t, 10)
	add(t, b, 0, 1, 100) // d90 = 1
	add(t, b, 5, 9, 100) // d90 = 4
	m := b.Matrix()
	d, err := RankDistance(m, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if d != 2.5 {
		t.Fatalf("RankDistance = %v, want 2.5", d)
	}
}

func TestRankDistanceIgnoresSilentRanks(t *testing.T) {
	b := newBuilder(t, 100)
	add(t, b, 0, 1, 100)
	m := b.Matrix()
	d, err := RankDistance(m, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if d != 1 {
		t.Fatalf("RankDistance = %v, want 1", d)
	}
}

func TestRankDistanceNoTraffic(t *testing.T) {
	b := newBuilder(t, 4)
	m := b.Matrix()
	if _, err := RankDistance(m, 0.9); err != ErrNoTraffic {
		t.Fatalf("err = %v, want ErrNoTraffic", err)
	}
	if _, err := RankLocality(m, 0.9); err != ErrNoTraffic {
		t.Fatalf("err = %v, want ErrNoTraffic", err)
	}
	if _, err := Selectivity(m, 0.9); err != ErrNoTraffic {
		t.Fatalf("err = %v, want ErrNoTraffic", err)
	}
	if _, err := CumulativeCurve(m); err != ErrNoTraffic {
		t.Fatalf("err = %v, want ErrNoTraffic", err)
	}
}

func TestCoverageValidation(t *testing.T) {
	b := newBuilder(t, 4)
	add(t, b, 0, 1, 1)
	m := b.Matrix()
	for _, q := range []float64{0, -0.5, 1.5, math.NaN()} {
		if _, err := RankDistance(m, q); err == nil {
			t.Errorf("RankDistance(q=%v) should fail", q)
		}
		if _, err := Selectivity(m, q); err == nil {
			t.Errorf("Selectivity(q=%v) should fail", q)
		}
		if _, err := DimLocality(m, 2, q); err == nil {
			t.Errorf("DimLocality(q=%v) should fail", q)
		}
	}
}

func TestSelectivityDominantPartner(t *testing.T) {
	// One partner carries 95% of rank 0's traffic: selectivity 1.
	b := newBuilder(t, 8)
	add(t, b, 0, 5, 95)
	add(t, b, 0, 1, 5)
	m := b.Matrix()
	s, err := Selectivity(m, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if s != 1 {
		t.Fatalf("Selectivity = %v, want 1", s)
	}
}

func TestSelectivityUniformPartners(t *testing.T) {
	// Rank 0 sends equally to 5 partners: 90% needs ceil(0.9*5)=5 of them
	// (4 cover only 80%).
	b := newBuilder(t, 8)
	for d := 1; d <= 5; d++ {
		add(t, b, 0, d, 100)
	}
	m := b.Matrix()
	s, err := Selectivity(m, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if s != 5 {
		t.Fatalf("Selectivity = %v, want 5", s)
	}
}

func TestSelectivityAveragesOverRanks(t *testing.T) {
	b := newBuilder(t, 8)
	add(t, b, 0, 1, 100) // selectivity 1
	add(t, b, 1, 0, 50)  // selectivity 2 (equal split)
	add(t, b, 1, 2, 50)
	m := b.Matrix()
	s, err := Selectivity(m, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if s != 1.5 {
		t.Fatalf("Selectivity = %v, want 1.5", s)
	}
}

func TestSelectivityNeverExceedsPeers(t *testing.T) {
	b := newBuilder(t, 16)
	// Arbitrary pattern.
	for r := 0; r < 16; r++ {
		for k := 1; k <= 4; k++ {
			add(t, b, r, (r+k*3)%16, uint64(100/k))
		}
	}
	m := b.Matrix()
	per, err := PerRankSelectivity(m, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	_, peers := Peers(m)
	for r := range per {
		if per[r] > peers[r] {
			t.Fatalf("rank %d selectivity %d > peers %d", r, per[r], peers[r])
		}
	}
}

func TestPartnerCurve(t *testing.T) {
	b := newBuilder(t, 8)
	add(t, b, 0, 3, 10)
	add(t, b, 0, 1, 30)
	add(t, b, 0, 6, 20)
	m := b.Matrix()
	curve, err := PartnerCurve(m, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{30, 20, 10}
	if len(curve) != 3 {
		t.Fatalf("len = %d", len(curve))
	}
	for i := range want {
		if curve[i] != want[i] {
			t.Fatalf("curve = %v, want %v", curve, want)
		}
	}
	if _, err := PartnerCurve(m, 100); err == nil {
		t.Fatal("out-of-range rank accepted")
	}
	empty, err := PartnerCurve(m, 5)
	if err != nil || len(empty) != 0 {
		t.Fatalf("silent rank curve = %v, %v", empty, err)
	}
}

func TestCumulativeCurve(t *testing.T) {
	b := newBuilder(t, 4)
	// Rank 0: 80/20 -> [0.8, 1.0]. Rank 1: 100 -> [1.0] padded to [1.0, 1.0].
	add(t, b, 0, 1, 80)
	add(t, b, 0, 2, 20)
	add(t, b, 1, 0, 100)
	m := b.Matrix()
	curve, err := CumulativeCurve(m)
	if err != nil {
		t.Fatal(err)
	}
	if len(curve) != 2 {
		t.Fatalf("len = %d, want 2", len(curve))
	}
	if math.Abs(curve[0]-0.9) > 1e-12 || math.Abs(curve[1]-1.0) > 1e-12 {
		t.Fatalf("curve = %v, want [0.9 1.0]", curve)
	}
	// Monotone non-decreasing, ends at 1.
	for i := 1; i < len(curve); i++ {
		if curve[i] < curve[i-1] {
			t.Fatal("curve not monotone")
		}
	}
}

func TestPerRankDistanceNaNForSilent(t *testing.T) {
	b := newBuilder(t, 3)
	add(t, b, 0, 1, 5)
	m := b.Matrix()
	per, err := PerRankDistance(m, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if per[0] != 1 {
		t.Fatalf("per[0] = %v", per[0])
	}
	if !math.IsNaN(per[1]) || !math.IsNaN(per[2]) {
		t.Fatalf("silent ranks should be NaN: %v", per)
	}
}
