package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, eps float64) bool {
	return math.Abs(a-b) <= eps
}

func TestWeightedQuantileLECoverage(t *testing.T) {
	// Distances 1,2,3 with volumes 80,15,5: 90% coverage needs distance 2.
	xs := []float64{1, 2, 3}
	ws := []float64{80, 15, 5}
	got, err := WeightedQuantileLE(xs, ws, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if got != 2 {
		t.Fatalf("WeightedQuantileLE = %v, want 2", got)
	}
}

func TestWeightedQuantileLEExactBoundary(t *testing.T) {
	// 90% exactly covered at value 1.
	got, err := WeightedQuantileLE([]float64{1, 2}, []float64{90, 10}, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if got != 1 {
		t.Fatalf("exact boundary = %v, want 1", got)
	}
}

func TestWeightedQuantileLEIgnoresZeroWeights(t *testing.T) {
	got, err := WeightedQuantileLE([]float64{100, 1}, []float64{0, 5}, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if got != 1 {
		t.Fatalf("got %v, want 1", got)
	}
}

func TestWeightedQuantileLEErrors(t *testing.T) {
	if _, err := WeightedQuantileLE([]float64{1}, []float64{0}, 0.9); err != ErrEmpty {
		t.Fatalf("zero total weight: want ErrEmpty, got %v", err)
	}
	if _, err := WeightedQuantileLE([]float64{1}, []float64{-1}, 0.9); err == nil {
		t.Fatal("negative weight should error")
	}
	if _, err := WeightedQuantileLE([]float64{1}, []float64{1}, 2); err == nil {
		t.Fatal("q out of range should error")
	}
}

func TestCoverageCount(t *testing.T) {
	cases := []struct {
		ws   []float64
		q    float64
		want int
	}{
		{[]float64{50, 30, 15, 5}, 0.9, 3},
		{[]float64{90, 10}, 0.9, 1},
		{[]float64{89, 11}, 0.9, 2},
		{[]float64{1, 1, 1, 1}, 1.0, 4},
		{[]float64{100}, 0.9, 1},
		{nil, 0.9, 0},
		{[]float64{0, 0}, 0.9, 0},
	}
	for _, c := range cases {
		if got := CoverageCount(c.ws, c.q); got != c.want {
			t.Errorf("CoverageCount(%v, %v) = %d, want %d", c.ws, c.q, got, c.want)
		}
	}
}

func TestCoverageCountOrderIndependent(t *testing.T) {
	a := []float64{5, 30, 50, 15}
	b := []float64{50, 30, 15, 5}
	if CoverageCount(a, 0.9) != CoverageCount(b, 0.9) {
		t.Fatal("CoverageCount should be order independent")
	}
}

func TestCumulativeShares(t *testing.T) {
	got := CumulativeShares([]float64{10, 30, 60})
	want := []float64{0.6, 0.9, 1.0}
	if len(got) != len(want) {
		t.Fatalf("len = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if !almostEqual(got[i], want[i], 1e-12) {
			t.Errorf("share[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestCumulativeSharesEmpty(t *testing.T) {
	if got := CumulativeShares(nil); got != nil {
		t.Fatalf("want nil, got %v", got)
	}
	if got := CumulativeShares([]float64{0}); got != nil {
		t.Fatalf("want nil for all-zero, got %v", got)
	}
}

// Property: CoverageCount is monotone non-decreasing in q.
func TestCoverageCountMonotoneProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		ws := make([]float64, len(raw))
		for i, r := range raw {
			ws[i] = float64(r)
		}
		prev := 0
		for _, q := range []float64{0.1, 0.3, 0.5, 0.7, 0.9, 1.0} {
			c := CoverageCount(ws, q)
			if c < prev {
				return false
			}
			prev = c
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: WeightedQuantileLE result is always one of the input values and
// covers at least q of the weight.
func TestWeightedQuantileLECoversProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(20)
		xs := make([]float64, n)
		ws := make([]float64, n)
		var total float64
		for i := range xs {
			xs[i] = float64(rng.Intn(100))
			ws[i] = float64(rng.Intn(50))
			total += ws[i]
		}
		if total == 0 {
			continue
		}
		q := rng.Float64()
		v, err := WeightedQuantileLE(xs, ws, q)
		if err != nil {
			t.Fatal(err)
		}
		var cum float64
		for i := range xs {
			if xs[i] <= v {
				cum += ws[i]
			}
		}
		if cum+1e-9 < q*total {
			t.Fatalf("coverage %v < q*total %v (v=%v xs=%v ws=%v)", cum, q*total, v, xs, ws)
		}
	}
}

// Property: CumulativeShares is monotone and ends at 1.
func TestCumulativeSharesMonotoneProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		ws := make([]float64, len(raw))
		anyPos := false
		for i, r := range raw {
			ws[i] = float64(r)
			if r > 0 {
				anyPos = true
			}
		}
		shares := CumulativeShares(ws)
		if !anyPos {
			return shares == nil
		}
		if !sort.Float64sAreSorted(shares) {
			return false
		}
		return almostEqual(shares[len(shares)-1], 1.0, 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestInPlaceVariantsMatchOriginals cross-checks the allocation-free
// in-place quantile and coverage-count against the copying originals on
// random data (including zero weights, which both must drop) across a
// spread of quantiles. The in-place variants may permute their inputs,
// so each call gets a fresh copy.
func TestInPlaceVariantsMatchOriginals(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(40)
		xs := make([]float64, n)
		ws := make([]float64, n)
		for i := range xs {
			xs[i] = math.Floor(rng.Float64()*100) / 10
			if rng.Intn(4) == 0 {
				ws[i] = 0 // zero-weight samples must be dropped identically
			} else {
				ws[i] = rng.Float64() * 10
			}
		}
		for _, q := range []float64{0.1, 0.5, 0.9, 1} {
			want, wantErr := WeightedQuantileLE(append([]float64(nil), xs...), append([]float64(nil), ws...), q)
			got, gotErr := WeightedQuantileLEInPlace(append([]float64(nil), xs...), append([]float64(nil), ws...), q)
			if (wantErr == nil) != (gotErr == nil) {
				t.Fatalf("trial %d q=%g: error mismatch: %v vs %v", trial, q, wantErr, gotErr)
			}
			if wantErr == nil && got != want {
				t.Fatalf("trial %d q=%g: WeightedQuantileLEInPlace = %v, want %v (xs=%v ws=%v)",
					trial, q, got, want, xs, ws)
			}
			wantC := CoverageCount(append([]float64(nil), ws...), q)
			gotC := CoverageCountInPlace(append([]float64(nil), ws...), q)
			if gotC != wantC {
				t.Fatalf("trial %d q=%g: CoverageCountInPlace = %d, want %d (ws=%v)",
					trial, q, gotC, wantC, ws)
			}
		}
	}
}
