// The race runtime allocates on its own, so allocation counts are only
// meaningful without it.

//go:build !race

package simnet

import (
	"math"
	"runtime"
	"testing"

	"netloc/internal/topology"
	"netloc/internal/trace"
)

// TestLoadAllocsDoNotGrowWithMessages: a lean replay routes each rank
// pair once and keeps nothing per message, so it makes the same
// allocations, of the same bytes, for a trace and for one twice as long
// over the same pairs. A replay that routed per message, or kept
// latencies, slacks or release timelines, would not.
func TestLoadAllocsDoNotGrowWithMessages(t *testing.T) {
	topo, err := topology.NewTorus(4, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	mp := consecutive(t, 64, 64)
	tr := genTrace(t, "LULESH", 64)
	// The same events again, after the last one has ended.
	double := &trace.Trace{Meta: tr.Meta, Events: append([]trace.Event(nil), tr.Events...)}
	var shift uint64
	for _, e := range tr.Events {
		shift = max(shift, e.End+1)
	}
	for _, e := range tr.Events {
		e.Start += shift
		e.End += shift
		double.Events = append(double.Events, e)
	}
	type cost struct {
		allocs float64
		bytes  uint64
	}
	load := func(tr *trace.Trace) (cost, int) {
		w, err := Prepare(tr)
		if err != nil {
			t.Fatal(err)
		}
		var s *Stats
		// The first collections of a process start the collector's
		// worker goroutines, which count as allocations: collect once
		// before measuring, so none starts during it.
		runtime.GC()
		c := cost{allocs: testing.AllocsPerRun(5, func() {
			if s, err = w.Load(topo, mp, Options{}); err != nil {
				t.Fatal(err)
			}
		})}
		// The fewest bytes over a few replays: another goroutine of the
		// test binary can allocate while one replay runs.
		c.bytes = math.MaxUint64
		for i := 0; i < 5; i++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if _, err := w.Load(topo, mp, Options{}); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			c.bytes = min(c.bytes, after.TotalAlloc-before.TotalAlloc)
		}
		return c, s.Messages
	}
	once, n1 := load(tr)
	twice, n2 := load(double)
	if n2 != 2*n1 {
		t.Fatalf("doubled trace replays %d messages, want %d", n2, 2*n1)
	}
	if twice != once {
		t.Fatalf("per replay: %+v for %d messages, %+v for %d", once, n1, twice, n2)
	}
}
