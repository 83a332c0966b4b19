// The race runtime allocates on its own, so allocation counts are only
// meaningful without it.

//go:build !race

package mpi

import (
	"runtime"
	"testing"
)

// The world communicator holds no rank tables: accumulation builds one
// per trace, and it costs the same at 256 ranks as at 4,096.
func TestWorldAllocsDoNotGrowWithRanks(t *testing.T) {
	allocs := func(n int) float64 {
		// The first collections of a process start the collector's
		// worker goroutines, which count as allocations: collect once
		// before measuring, so none starts during it.
		runtime.GC()
		return testing.AllocsPerRun(10, func() {
			if _, err := World(n); err != nil {
				t.Fatal(err)
			}
		})
	}
	if small, large := allocs(256), allocs(4096); small != large {
		t.Errorf("World allocated %v objects at 256 ranks and %v at 4,096", small, large)
	}
}
