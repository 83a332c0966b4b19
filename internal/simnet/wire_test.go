package simnet

import (
	"reflect"
	"testing"

	"netloc/internal/workloads"
)

// The Wire PrepareStream builds from a generated workload's stream, read
// 256 events at a time, equals Prepare of App.Generate's trace, on the
// congestion study's workloads and one extrapolated scale (LULESH/216).
func TestPrepareStreamMatchesGeneratedTrace(t *testing.T) {
	for _, c := range []struct {
		app   string
		ranks int
		at    bool
	}{
		{"LULESH", 64, false}, {"CESAR MOCFE", 64, false}, {"Crystal Router", 100, false},
		{"BigFFT", 100, false}, {"LULESH", 216, true},
	} {
		a, err := workloads.Lookup(c.app)
		if err != nil {
			t.Fatal(err)
		}
		generate, stream := a.Generate, a.Stream
		if c.at {
			generate, stream = a.GenerateAt, a.StreamAt
		}
		tr, err := generate(c.ranks)
		if err != nil {
			t.Fatal(err)
		}
		want, err := Prepare(tr)
		if err != nil {
			t.Fatal(err)
		}
		src, err := stream(c.ranks)
		if err != nil {
			t.Fatal(err)
		}
		got, err := PrepareStream(src)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s/%d: the streamed Wire differs from the trace's", c.app, c.ranks)
		}
	}
}
