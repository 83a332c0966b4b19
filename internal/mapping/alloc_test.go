// The race runtime allocates on its own, so allocation counts are only
// meaningful without it.

//go:build !race

package mapping

import (
	"runtime"
	"testing"

	"netloc/internal/comm"
	"netloc/internal/topology"
)

// stencil27 returns the traffic of a periodic n×n×n 27-point stencil:
// every rank sends to its 26 neighbors.
func stencil27(t *testing.T, n int) *comm.Matrix {
	t.Helper()
	b, err := comm.NewBuilder(n*n*n, 0)
	if err != nil {
		t.Fatal(err)
	}
	id := func(x, y, z int) int { return ((z+n)%n*n+(y+n)%n)*n + (x+n)%n }
	for z := 0; z < n; z++ {
		for y := 0; y < n; y++ {
			for x := 0; x < n; x++ {
				for dz := -1; dz <= 1; dz++ {
					for dy := -1; dy <= 1; dy++ {
						for dx := -1; dx <= 1; dx++ {
							if dx == 0 && dy == 0 && dz == 0 {
								continue
							}
							bytes := uint64(1000 * (1 + dx*dx + dy*dy + dz*dz))
							if err := b.Add(id(x, y, z), id(x+dx, y+dy, z+dz), bytes); err != nil {
								t.Fatal(err)
							}
						}
					}
				}
			}
		}
	}
	return b.Matrix()
}

// Greedy allocates per mapping, never per rank: its rank graph's rows
// share one backing array and its per-step scratch is sized once. The
// 4×4×4 stencil's rows are stored densely and the 8×8×8 one's sparsely,
// so the count does not depend on the matrix representation either.
func TestGreedyAllocsDoNotGrowWithRanks(t *testing.T) {
	allocs := func(n int) float64 {
		m := stencil27(t, n)
		topo, err := topology.NewTorus(n, n, n)
		if err != nil {
			t.Fatal(err)
		}
		// The first collections of a process start the collector's
		// worker goroutines, which count as allocations: collect once
		// before measuring, so none starts during it.
		runtime.GC()
		return testing.AllocsPerRun(3, func() {
			if _, err := Greedy(m, topo); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(4), allocs(8)
	if small != large {
		t.Fatalf("Greedy allocated %v objects for 64 ranks and %v for 512", small, large)
	}
}
