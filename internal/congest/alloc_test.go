// The race runtime allocates on its own, so allocation counts are only
// meaningful without it.

//go:build !race

package congest

import (
	"math"
	"runtime"
	"testing"

	"netloc/internal/simnet"
	"netloc/internal/trace"
)

// TestProbeAllocsDoNotGrowWithMessages: a tolerance probe reads only the
// makespan and reuses its replay's buffers, so it makes the same
// allocations, of the same bytes, for a trace and for one twice as
// long. A probe that boxed events or kept latencies, reservations or
// other per-message state would not.
func TestProbeAllocsDoNotGrowWithMessages(t *testing.T) {
	topo := torus(t, 4, 4, 4)
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
	opts, err := Options{}.normalize()
	if err != nil {
		t.Fatal(err)
	}
	type cost struct {
		allocs float64
		bytes  uint64
	}
	probe := func(tr *trace.Trace) (cost, int) {
		w, err := simnet.Prepare(tr)
		if err != nil {
			t.Fatal(err)
		}
		r, err := newReplay(w, topo, mp, opts)
		if err != nil {
			t.Fatal(err)
		}
		// The first collections of a process start the collector's
		// worker goroutines, which count as allocations: collect once
		// before measuring, so none starts during it.
		runtime.GC()
		c := cost{allocs: testing.AllocsPerRun(5, func() { r.makespan(1e-7) })}
		// The fewest bytes over a few probes: another goroutine of the
		// test binary can allocate while one probe runs.
		c.bytes = math.MaxUint64
		for i := 0; i < 5; i++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			r.makespan(1e-7)
			runtime.ReadMemStats(&after)
			c.bytes = min(c.bytes, after.TotalAlloc-before.TotalAlloc)
		}
		return c, len(r.msgs)
	}
	once, n1 := probe(tr)
	twice, n2 := probe(double)
	if n2 != 2*n1 {
		t.Fatalf("doubled trace replays %d messages, want %d", n2, 2*n1)
	}
	if twice != once {
		t.Fatalf("per probe: %+v for %d messages, %+v for %d", once, n1, twice, n2)
	}
}
