// The race runtime allocates on its own, so allocation counts are only
// meaningful without it.

//go:build !race

package comm

import (
	"testing"

	"netloc/internal/trace"
)

// Accumulate allocates per matrix row and per collective shape, never
// per event: repeating every message of a trace k times leaves its
// allocation count unchanged, for point-to-point sends (sparse rows) and
// for coalesced allreduce rounds (dense rows) alike.
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
