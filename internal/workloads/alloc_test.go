// The race runtime allocates on its own, so allocation counts are only
// meaningful without it.

//go:build !race

package workloads

import (
	"runtime"
	"testing"

	"netloc/internal/trace"
)

// A generated stream stamps every event into one reused batch: draining
// LULESH/512's 202,720 events allocates as many objects as LULESH/64's
// 18,720.
func TestStreamDrainAllocsDoNotGrowWithEvents(t *testing.T) {
	app, err := Lookup("LULESH")
	if err != nil {
		t.Fatal(err)
	}
	var counts []float64
	for ranks, events := range map[int]uint64{64: 18720, 512: 202720} {
		// AllocsPerRun drains one stream per run, plus one to warm up.
		const runs = 2
		streams := make([]trace.Source, runs+1)
		for i := range streams {
			if streams[i], err = app.Stream(ranks); err != nil {
				t.Fatal(err)
			}
		}
		if n := streams[0].Remaining(); n != events {
			t.Fatalf("LULESH/%d streams %d events, want %d", ranks, n, events)
		}
		i := 0
		// The first collections of a process start the collector's worker
		// goroutines, which count as allocations: collect once before
		// measuring, so none starts during it.
		runtime.GC()
		counts = append(counts, testing.AllocsPerRun(runs, func() {
			if _, _, err := trace.SumBytes(streams[i]); err != nil {
				t.Fatal(err)
			}
			i++
		}))
	}
	if counts[0] != counts[1] {
		t.Errorf("draining LULESH/64 and LULESH/512 allocated %v objects", counts)
	}
}
