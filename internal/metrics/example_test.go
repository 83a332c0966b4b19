package metrics_test

import (
	"fmt"

	"netloc/internal/comm"
	"netloc/internal/metrics"
)

// A rank whose traffic goes 80% to its +1 neighbor and 20% to a far rank
// has rank distance 9 at full coverage but distance 1 at the paper's 90%
// threshold only if the neighbor share reaches 90% — here it does not, so
// the far partner counts.
func ExampleRankDistance() {
	b, _ := comm.NewBuilder(16, 0)
	_ = b.Add(0, 1, 80)
	_ = b.Add(0, 9, 20)
	m := b.Matrix()

	d90, _ := metrics.RankDistance(m, 0.9)
	dFull, _ := metrics.RankDistance(m, 1.0)
	fmt.Printf("distance(90%%) = %.0f, distance(100%%) = %.0f\n", d90, dFull)
	// Output:
	// distance(90%) = 9, distance(100%) = 9
}

// Selectivity counts how many partners (largest first) cover 90% of a
// rank's volume: one dominant partner suffices here.
func ExampleSelectivity() {
	b, _ := comm.NewBuilder(8, 0)
	_ = b.Add(0, 5, 95)
	_ = b.Add(0, 1, 3)
	_ = b.Add(0, 2, 2)
	m := b.Matrix()

	s, _ := metrics.Selectivity(m, 0.9)
	fmt.Printf("selectivity = %.0f\n", s)
	// Output:
	// selectivity = 1
}

// Peers is the peak number of distinct destinations over all ranks.
func ExamplePeers() {
	b, _ := comm.NewBuilder(8, 0)
	_ = b.Add(0, 1, 1)
	_ = b.Add(0, 2, 1)
	_ = b.Add(3, 4, 1)
	m := b.Matrix()

	peak, _ := metrics.Peers(m)
	fmt.Println(peak)
	// Output:
	// 2
}

// DimLocality folds rank IDs onto candidate grids: a 4x4 five-point
// stencil reaches 100% locality in 2D while its 1D locality is poor.
func ExampleDimLocality() {
	b, _ := comm.NewBuilder(16, 0)
	for y := 0; y < 4; y++ {
		for x := 0; x < 4; x++ {
			id := y*4 + x
			if x+1 < 4 {
				_ = b.Add(id, id+1, 100)
			}
			if y+1 < 4 {
				_ = b.Add(id, id+4, 100)
			}
		}
	}
	m := b.Matrix()
	r2, _ := metrics.DimLocality(m, 2, 0.9)
	fmt.Printf("2D locality = %.0f%% on grid %v\n", r2.LocalityPct, r2.Grid)
	// Output:
	// 2D locality = 100% on grid [4 4]
}
