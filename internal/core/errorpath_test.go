package core

import (
	"strings"
	"testing"

	"netloc/internal/obs"
)

// assertSpansEnded walks a snapshot tree and fails on any span that was
// never End()ed — the leak the error paths used to have when spans were
// closed manually on each branch instead of by defer.
func assertSpansEnded(t *testing.T, d obs.SpanData, path string) {
	t.Helper()
	name := path + "/" + d.Name
	if !d.Ended {
		t.Errorf("span %s was never ended", name)
	}
	for _, c := range d.Children {
		assertSpansEnded(t, c, name)
	}
}

// TestSpansEndOnErrorPaths runs pipelines into failing workloads
// (LULESH at 7 ranks has no configured scale, so generation errors mid
// grid) and asserts every recorded span was terminated: an error must
// not leave half-open spans in the debug ring.
func TestSpansEndOnErrorPaths(t *testing.T) {
	tr := obs.NewTracer(4)

	root := tr.StartRun("simtable-error")
	if _, err := SimTable([]WorkloadRef{{App: "LULESH", Ranks: 64}, {App: "LULESH", Ranks: 7}}, Options{Span: root}); err == nil {
		t.Fatal("SimTable with an ungeneratable workload succeeded")
	}
	root.End()
	assertSpansEnded(t, root.Data(), "")

	// An unknown family fails after the cell's trace is generated.
	root = tr.StartRun("congestion-error")
	if _, err := CongestionTable([]WorkloadRef{{App: "LULESH", Ranks: 64}}, []string{"moebius"}, nil, -1, Options{Span: root}); err == nil {
		t.Fatal("CongestionTable with an unknown family succeeded")
	}
	root.End()
	assertSpansEnded(t, root.Data(), "")

	root = tr.StartRun("analyze-error")
	if _, err := AnalyzeApp("LULESH", 7, Options{Span: root}); err == nil {
		t.Fatal("AnalyzeApp at an unconfigured scale succeeded")
	}
	root.End()
	assertSpansEnded(t, root.Data(), "")
}

// TestFigure3MaxRanksCap pins the two cap behaviors: a cap below every
// configured scale is a loud, listing error; a cap that only excludes
// some workloads returns the reachable curves (documented omission, the
// way the paper's figure simply lacks a curve for an unreached scale).
func TestFigure3MaxRanksCap(t *testing.T) {
	// The smallest configured scale in the registry is AMG/8, so a cap
	// of 4 excludes every workload.
	_, err := Figure3(Options{MaxRanks: 4})
	if err == nil {
		t.Fatal("Figure3 with MaxRanks 4 returned no error")
	}
	if !strings.Contains(err.Error(), "MaxRanks 4 excludes every workload") ||
		!strings.Contains(err.Error(), "smallest configured scale: 8") {
		t.Fatalf("Figure3 cap error = %q, want the excludes-every-workload listing", err)
	}

	curves, err := Figure3(Options{MaxRanks: 128})
	if err != nil {
		t.Fatalf("Figure3 with a partial cap: %v", err)
	}
	if len(curves) == 0 {
		t.Fatal("partial cap returned no curves")
	}
	apps := map[string]bool{}
	for _, c := range curves {
		if c.Ranks > 128 {
			t.Errorf("%s/%d exceeds the cap", c.App, c.Ranks)
		}
		apps[c.App] = true
	}
	// PARTISN's only configured scale is 168 ranks, so a 128 cap omits
	// it (documented behavior) without failing the whole figure.
	if apps["PARTISN"] {
		t.Error("PARTISN (only scale 168) should be omitted under MaxRanks 128")
	}
}

// TestFigure4MaxRanksCap: same contract for the single-app scaling
// figure — the caller named the app, so a cap excluding all of its
// scales errors with the configured list, while a partial cap returns
// the admissible prefix.
func TestFigure4MaxRanksCap(t *testing.T) {
	// LULESH is configured at 64 and 512 ranks only.
	_, err := Figure4("LULESH", Options{MaxRanks: 8})
	if err == nil {
		t.Fatal("Figure4 with MaxRanks 8 returned no error")
	}
	if !strings.Contains(err.Error(), "MaxRanks 8 excludes every LULESH configuration") ||
		!strings.Contains(err.Error(), "64") {
		t.Fatalf("Figure4 cap error = %q, want the configured-scales listing", err)
	}

	curves, err := Figure4("LULESH", Options{MaxRanks: 64})
	if err != nil {
		t.Fatalf("Figure4 with a partial cap: %v", err)
	}
	if len(curves) != 1 || curves[0].Ranks != 64 {
		t.Fatalf("partial cap curves = %+v, want exactly LULESH/64", curves)
	}
}
