package metrics

import (
	"math"
	"math/rand"
	"testing"

	"netloc/internal/comm"
	"netloc/internal/parallel"
)

// randomMatrix builds a dense-ish random traffic matrix whose per-rank
// metric values exercise all code paths (silent ranks included).
func randomMatrix(t *testing.T, ranks int) *comm.Matrix {
	t.Helper()
	b := newBuilder(t, ranks)
	rng := rand.New(rand.NewSource(42))
	for src := 0; src < ranks; src++ {
		if src%7 == 6 {
			continue // leave some ranks silent (NaN paths)
		}
		partners := 1 + rng.Intn(ranks/2)
		for p := 0; p < partners; p++ {
			dst := (src + 1 + rng.Intn(ranks-1)) % ranks
			add(t, b, src, dst, uint64(1+rng.Intn(100000)))
		}
	}
	return b.Matrix()
}

func sameFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] && !(math.IsNaN(a[i]) && math.IsNaN(b[i])) {
			return false
		}
	}
	return true
}

// TestEngineParallelMatchesSequential pins the engine's central promise:
// every metric is bit-identical under any worker count, because result
// slices are index-addressed and float reductions run sequentially in
// index order.
func TestEngineParallelMatchesSequential(t *testing.T) {
	m := randomMatrix(t, 96)
	seq := Engine{} // zero value: sequential
	for _, workers := range []int{2, 3, 8} {
		par := Engine{Run: parallel.New(workers)}

		seqPer, err1 := seq.PerRankDistance(m, 0.9)
		parPer, err2 := par.PerRankDistance(m, 0.9)
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		if !sameFloats(seqPer, parPer) {
			t.Fatalf("workers=%d: PerRankDistance differs", workers)
		}

		seqD, err1 := seq.RankDistance(m, 0.9)
		parD, err2 := par.RankDistance(m, 0.9)
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		if seqD != parD {
			t.Fatalf("workers=%d: RankDistance %v != %v", workers, parD, seqD)
		}

		seqL, err1 := seq.RankLocality(m, 0.9)
		parL, err2 := par.RankLocality(m, 0.9)
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		if seqL != parL {
			t.Fatalf("workers=%d: RankLocality %v != %v", workers, parL, seqL)
		}

		seqSel, err1 := seq.PerRankSelectivity(m, 0.9)
		parSel, err2 := par.PerRankSelectivity(m, 0.9)
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		for i := range seqSel {
			if seqSel[i] != parSel[i] {
				t.Fatalf("workers=%d: PerRankSelectivity[%d] %d != %d", workers, i, parSel[i], seqSel[i])
			}
		}

		seqS, err1 := seq.Selectivity(m, 0.9)
		parS, err2 := par.Selectivity(m, 0.9)
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		if seqS != parS {
			t.Fatalf("workers=%d: Selectivity %v != %v", workers, parS, seqS)
		}

		for dims := 1; dims <= 3; dims++ {
			seqDim, err1 := seq.DimLocality(m, dims, 0.9)
			parDim, err2 := par.DimLocality(m, dims, 0.9)
			if err1 != nil || err2 != nil {
				t.Fatal(err1, err2)
			}
			if seqDim.Distance != parDim.Distance || seqDim.LocalityPct != parDim.LocalityPct {
				t.Fatalf("workers=%d dims=%d: DimLocality %+v != %+v", workers, dims, parDim, seqDim)
			}
			if len(seqDim.Grid) != len(parDim.Grid) {
				t.Fatalf("workers=%d dims=%d: grid rank differs", workers, dims)
			}
			for i := range seqDim.Grid {
				if seqDim.Grid[i] != parDim.Grid[i] {
					t.Fatalf("workers=%d dims=%d: grid %v != %v", workers, dims, parDim.Grid, seqDim.Grid)
				}
			}
		}
	}
}

func TestPackageFuncsMatchZeroEngine(t *testing.T) {
	m := randomMatrix(t, 24)
	fromPkg, err1 := RankDistance(m, 0.9)
	fromEng, err2 := Engine{}.RankDistance(m, 0.9)
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if fromPkg != fromEng {
		t.Fatalf("package func %v != zero engine %v", fromPkg, fromEng)
	}
}
