// The race runtime allocates on its own, so allocation counts are only
// meaningful without it.

//go:build !race

package topology

import (
	"runtime"
	"testing"
)

// Route appends into the caller's buffer: once the buffer has grown to
// the longest route, routing allocates nothing on any topology type.
// simnet and congest route every rank pair through Route, so an
// allocation here would scale with the pairs.
func TestRouteAllocsNothingIntoWarmBuffer(t *testing.T) {
	df, err := NewDragonfly(4, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	v, err := NewValiant(df, 3)
	if err != nil {
		t.Fatal(err)
	}
	tops := []Topology{v}
	for _, tc := range familyCases(t) {
		tops = append(tops, tc.topo)
	}
	for _, topo := range tops {
		n := topo.Nodes()
		buf := make([]int, 0, 64)
		// The first collections of a process start the collector's
		// worker goroutines, which count as allocations: collect once
		// before measuring, so none starts during it.
		runtime.GC()
		if allocs := testing.AllocsPerRun(3, func() {
			for s := 0; s < n; s++ {
				for d := 0; d < n; d++ {
					if buf, err = topo.Route(s, d, buf); err != nil {
						t.Fatal(err)
					}
				}
			}
		}); allocs != 0 {
			t.Errorf("%s: %g allocations per all-pairs Route sweep, want 0", topo.Name(), allocs)
		}
	}
}
