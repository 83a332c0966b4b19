package comm

import (
	"fmt"
	"reflect"
	"testing"

	"netloc/internal/mpi"
	"netloc/internal/workloads"
)

// The matrices AccumulateStream builds from a generated workload's
// stream, read 256 events at a time, equal those Accumulate builds from
// App.Generate's trace in one batch: for every registry configuration
// and one extrapolated scale (LULESH/216) under the direct strategy, and
// for LULESH/64 under tree and ring too.
func TestAccumulateStreamMatchesGeneratedTrace(t *testing.T) {
	type config struct {
		app   *workloads.App
		ranks int
		at    bool
	}
	var configs []config
	for _, a := range workloads.All() {
		for _, r := range a.RankCounts() {
			configs = append(configs, config{app: a, ranks: r})
		}
	}
	lulesh, err := workloads.Lookup("LULESH")
	if err != nil {
		t.Fatal(err)
	}
	configs = append(configs, config{app: lulesh, ranks: 216, at: true})

	for _, c := range configs {
		name := fmt.Sprintf("%s/%d", c.app.Name, c.ranks)
		generate, stream := c.app.Generate, c.app.Stream
		if c.at {
			generate, stream = c.app.GenerateAt, c.app.StreamAt
		}
		tr, err := generate(c.ranks)
		if err != nil {
			t.Fatal(err)
		}
		strategies := []mpi.Strategy{mpi.StrategyDirect}
		if name == "LULESH/64" {
			strategies = append(strategies, mpi.StrategyTree, mpi.StrategyRing)
		}
		for _, st := range strategies {
			opts := AccumulateOptions{Strategy: st}
			want, err := Accumulate(tr, opts)
			if err != nil {
				t.Fatal(err)
			}
			src, err := stream(c.ranks)
			if err != nil {
				t.Fatal(err)
			}
			if n := src.Remaining(); n != uint64(len(tr.Events)) {
				t.Errorf("%s: the stream counts %d events up front, the trace holds %d", name, n, len(tr.Events))
			}
			got, err := AccumulateStream(src, opts)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s (strategy %d): the streamed matrices differ from the trace's", name, st)
			}
		}
	}
}
