// The race runtime allocates on its own, so allocation counts are only
// meaningful without it.

//go:build !race

package workcache

import (
	"runtime"
	"testing"

	"netloc/internal/trace"
)

// TestCacheHitAllocatesOnlyItsKey: a hit allocates nothing beyond
// rendering its key. Warm Table 3 makes 152 artifact lookups per unit,
// so one extra allocation per hit would show in its allocation count.
func TestCacheHitAllocatesOnlyItsKey(t *testing.T) {
	c := New(0)
	k := TraceKey{Source: SourceGenerate, App: "LULESH", Ranks: 512}
	tr := &trace.Trace{}
	gen := func() (*trace.Trace, error) { return tr, nil }
	if _, err := c.Trace(k, gen); err != nil {
		t.Fatal(err)
	}
	var id string
	// The first collections of a process start the collector's worker
	// goroutines, which count as allocations: collect once before
	// measuring, so none starts during it.
	runtime.GC()
	key := testing.AllocsPerRun(100, func() { id = k.id() })
	hit := testing.AllocsPerRun(100, func() { c.Trace(k, gen) })
	if hit > key {
		t.Fatalf("allocations per hit = %v, rendering the key %q alone = %v", hit, id, key)
	}
}
