// The race runtime allocates on its own, so allocation counts are only
// meaningful without it.

//go:build !race

package comm

import (
	"math"
	"runtime"
	"testing"

	"netloc/internal/trace"
)

// Accumulate allocates per matrix row and per collective shape, never
// per event: repeating every message of a trace k times leaves its
// allocation count unchanged, for point-to-point sends (sparse rows) and
// for coalesced allreduce rounds (one uniform term per row) alike.
func TestAccumulateAllocsDoNotGrowWithMessages(t *testing.T) {
	for _, c := range []struct {
		name  string
		build func(k int) *trace.Trace
	}{
		{"stencil/512", func(k int) *trace.Trace { return stencilTrace(512, k) }},
		{"allreduce/256", func(k int) *trace.Trace { return collectiveTrace(256, k) }},
	} {
		var first float64
		for i, k := range []int{5, 10, 40} {
			tr := c.build(k)
			// The first collections of a process start the collector's
			// worker goroutines, which count as allocations: collect once
			// before measuring, so none starts during it.
			runtime.GC()
			n := testing.AllocsPerRun(3, func() {
				if _, err := Accumulate(tr, AccumulateOptions{}); err != nil {
					t.Fatal(err)
				}
			})
			if i == 0 {
				first = n
			} else if n != first {
				t.Errorf("%s: Accumulate allocated %v objects at %d messages per pair and %v at 5", c.name, n, k, first)
			}
		}
	}
}

// A collective that reaches every other rank costs memory per rank, not
// per pair: one 8-byte allreduce per rank, at four times the ranks, may
// allocate about four times as much (at most five), while its wire
// matrix still reports all n(n−1) pairs. Expanded into pairs, the
// allocation grows with the square of the ranks (16.2 MB at 512 ranks,
// 262 MB at 2,048).
func TestAccumulateAllreduceAllocsGrowWithRanksNotPairs(t *testing.T) {
	allocated := func(ranks int) uint64 {
		tr := collectiveTrace(ranks, 1)
		for i := range tr.Events {
			tr.Events[i].Bytes = 8
		}
		least := uint64(math.MaxUint64)
		for i := 0; i < 3; i++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			acc, err := Accumulate(tr, AccumulateOptions{})
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			if want := ranks * (ranks - 1); acc.Wire.Pairs() != want {
				t.Fatalf("%d ranks: %d wire pairs, want %d", ranks, acc.Wire.Pairs(), want)
			}
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
		return least
	}
	small, large := allocated(512), allocated(2048)
	t.Logf("one allreduce per rank: %d B at 512 ranks, %d B at 2,048", small, large)
	if large > 5*small {
		t.Errorf("Accumulate allocated %d B at 2,048 ranks, %.1f times the %d B at 512", large, float64(large)/float64(small), small)
	}
}

// Builder.Matrix sorts every sparse row into one backing array, so ending
// a build makes the same few allocations at 64 sparse rows and at 4,096.
func TestBuilderMatrixAllocsDoNotGrowWithRows(t *testing.T) {
	const runs = 3
	allocs := func(ranks int) float64 {
		builders := make([]*Builder, runs+1) // AllocsPerRun calls once more to warm up
		for i := range builders {
			b, err := NewBuilder(ranks, 0)
			if err != nil {
				t.Fatal(err)
			}
			for src := 0; src < ranks; src++ {
				for _, d := range []int{1, 7, 31} {
					if err := b.Add(src, (src+d)%ranks, 64); err != nil {
						t.Fatal(err)
					}
				}
			}
			builders[i] = b
		}
		// A collection that starts during the measurement may start the
		// collector's worker goroutines, which count as allocations.
		runtime.GC()
		next := 0
		return testing.AllocsPerRun(runs, func() {
			builders[next].Matrix()
			next++
		})
	}
	if small, large := allocs(64), allocs(4096); small != large {
		t.Errorf("Builder.Matrix made %v allocations at 64 sparse rows and %v at 4,096", small, large)
	}
}
