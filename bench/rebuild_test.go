package main

import (
	"bytes"
	"testing"

	"netloc/internal/core"
	"netloc/internal/report"
)

// The traced rebuild must render exactly what core.Table3 renders; a
// capped grid keeps the test fast.
func TestTracedTable3MatchesCore(t *testing.T) {
	const maxRanks = 64
	rows, err := core.Table3(core.Options{MaxRanks: maxRanks})
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := report.Table3(&want, rows, true); err != nil {
		t.Fatal(err)
	}
	tr := newTracer()
	rebuilt, err := rebuildTable3(tr, nil, maxRanks)
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := report.Table3(&got, rebuilt, true); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("rebuilt Table 3 differs:\n--- rebuilt ---\n%s--- core ---\n%s", got.Bytes(), want.Bytes())
	}
	m := tr.layerMetrics(tr.covered(), 0)
	for _, name := range []string{"workloads.generate_s", "comm.accumulate_s", "metrics.mpi_metrics_s", "netmodel.run_s"} {
		if m[name] <= 0 {
			t.Errorf("%s = %v: the layer was never timed", name, m[name])
		}
	}
	if m["workloads.generate_calls"] != float64(len(rows)) {
		t.Errorf("%v generate calls for %d rows without a cache", m["workloads.generate_calls"], len(rows))
	}
}
