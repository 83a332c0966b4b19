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

// Every mapper searches the matrix's rank graph, which is built once per
// matrix: once a first call has built it, Greedy, Refine and Bisection on
// the same matrix each allocate less than the graph's rows alone (216
// ranks of the 6×6×6 stencil, 26 partners each, 16 bytes per partner).
func TestRankGraphAllocsOncePerMatrix(t *testing.T) {
	const n = 6
	m := stencil27(t, n)
	topo, err := topology.NewTorus(n, n, n)
	if err != nil {
		t.Fatal(err)
	}
	start, err := Consecutive(n*n*n, topo.Nodes())
	if err != nil {
		t.Fatal(err)
	}
	mappers := []struct {
		name string
		run  func() (*Mapping, error)
	}{
		{"greedy", func() (*Mapping, error) { return Greedy(m, topo) }},
		{"refine", func() (*Mapping, error) { return Refine(m, topo, start, 1) }},
		{"bisection", func() (*Mapping, error) { return Bisection(m, topo) }},
	}
	allocated := func(run func() (*Mapping, error)) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := run(); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	graphBytes := uint64(n * n * n * 26 * 16)
	if got := allocated(mappers[0].run); got < graphBytes {
		t.Fatalf("the first Greedy call allocated %d B, less than the %d B of the rank graph it builds", got, graphBytes)
	}
	for _, mp := range mappers {
		if got := allocated(mp.run); got >= graphBytes {
			t.Errorf("%s allocated %d B on a matrix whose rank graph is built; the graph alone is %d B", mp.name, got, graphBytes)
		}
	}
}
