// The race runtime allocates on its own, so allocation counts are only
// meaningful without it.

//go:build !race

package netmodel

import (
	"math"
	"runtime"
	"testing"

	"netloc/internal/comm"
	"netloc/internal/mapping"
	"netloc/internal/topology"
)

// TestRunAllocs pins what one Run allocates for a 1,024-rank all-to-all
// under the consecutive mapping, on the three Table 3 families at their
// Table 2 sizes. The per-link counters are most of it and are part of
// the Result; the rest is the Result itself, the class breakdown and the
// flow accumulation's scratch, which is sized by switches or nodes of a
// direct topology, never by the nodes of an indirect one. The pins are
// ceilings: an allocation that grows with the traffic, or a scratch
// vector over the fat tree's 13,824 nodes, breaks them.
func TestRunAllocs(t *testing.T) {
	const ranks = 1024
	b, err := comm.NewBuilder(ranks, 0)
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < ranks; s++ {
		for d := 0; d < ranks; d++ {
			if s != d {
				if err := b.Add(s, d, uint64(1+(s*7+d)%9000)); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	m := b.Matrix()
	tor, ft, df, err := topology.Configs(ranks)
	if err != nil {
		t.Fatal(err)
	}
	// The ceilings are what these runs allocate when the torus sorts
	// every node per source and the other families walk Route per pair
	// (go1.24, linux/amd64): flow accumulation must not cost more.
	for _, c := range []struct {
		cfg            topology.Config
		bytes, objects uint64
	}{
		{tor, 45584, 10},
		{ft, 344544, 9},
		{df, 29168, 10},
	} {
		topo, err := c.cfg.Build()
		if err != nil {
			t.Fatal(err)
		}
		mp, err := mapping.Consecutive(ranks, topo.Nodes())
		if err != nil {
			t.Fatal(err)
		}
		run := func() {
			if _, err := Run(m, topo, mp, Options{WallTime: 1, TrackLinks: true}); err != nil {
				t.Fatal(err)
			}
		}
		run() // warm up
		// The fewest over a few runs: another goroutine of the test binary
		// can allocate while one runs.
		bytes, objects := uint64(math.MaxUint64), uint64(math.MaxUint64)
		for i := 0; i < 5; i++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			run()
			runtime.ReadMemStats(&after)
			bytes = min(bytes, after.TotalAlloc-before.TotalAlloc)
			objects = min(objects, after.Mallocs-before.Mallocs)
		}
		t.Logf("%s: %d bytes, %d objects per Run", topo.Name(), bytes, objects)
		if bytes > c.bytes || objects > c.objects {
			t.Errorf("%s: Run allocates %d bytes in %d objects, want at most %d bytes in %d objects",
				topo.Name(), bytes, objects, c.bytes, c.objects)
		}
	}
}
