package main

import (
	"strings"
	"testing"

	"netloc/internal/core"
)

func TestRunAllKinds(t *testing.T) {
	var b strings.Builder
	if err := run(&b, 27, ""); err != nil {
		t.Fatal(err)
	}
	// The all-families listing covers the paper trio and the
	// extreme-scale families in fixed order.
	out := b.String()
	last := -1
	for _, kind := range core.AnalysisKinds() {
		i := strings.Index(out, kind+" (")
		if i < 0 {
			t.Fatalf("family %s missing from the listing:\n%s", kind, out)
		}
		if i < last {
			t.Fatalf("family %s out of order in the listing", kind)
		}
		last = i
	}
}

func TestRunSingleKind(t *testing.T) {
	for _, kind := range []string{"torus", "fattree", "dragonfly", "slimfly", "jellyfish", "hyperx"} {
		var b strings.Builder
		if err := run(&b, 64, kind); err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if !strings.HasPrefix(b.String(), kind+" (") {
			t.Fatalf("%s: unexpected output:\n%s", kind, b.String())
		}
	}
}

// TestExtremeScaleGoldenBlocks pins the header and cost lines of each
// extreme-scale family at 64 ranks. These are determinism regressions:
// the Slim Fly MMS construction, the seeded Jellyfish wiring, and the
// HyperX lattice must keep producing byte-identical inventories.
func TestExtremeScaleGoldenBlocks(t *testing.T) {
	golden := map[string][]string{
		"slimfly": {
			"slimfly (5,2): 100 nodes (64 ranks mapped), 150 vertices, 275 links (100 terminal, 50 local, 125 global)",
			"  cost: 50 switches, 275 links, 450 ports (141.2 units)",
		},
		"jellyfish": {
			"jellyfish (16,8,4;1): 64 nodes (64 ranks mapped), 80 vertices, 128 links (64 terminal, 0 local, 64 global)",
			"  cost: 16 switches, 128 links, 192 ports (57.6 units)",
		},
		"hyperx": {
			"hyperx (4,4,1;4): 64 nodes (64 ranks mapped), 80 vertices, 112 links (64 terminal, 48 local, 0 global)",
			"  cost: 16 switches, 112 links, 160 ports (52.0 units)",
		},
	}
	for kind, want := range golden {
		var b strings.Builder
		if err := run(&b, 64, kind); err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		lines := strings.Split(b.String(), "\n")
		if len(lines) < len(want) {
			t.Fatalf("%s: output too short:\n%s", kind, b.String())
		}
		for i, w := range want {
			if lines[i] != w {
				t.Errorf("%s line %d:\n got %q\nwant %q", kind, i, lines[i], w)
			}
		}
	}
}

func TestRunUnknownKind(t *testing.T) {
	var b strings.Builder
	err := run(&b, 64, "hypercube")
	if err == nil || !strings.Contains(err.Error(), "unknown kind") {
		t.Fatalf("err = %v, want unknown-kind listing", err)
	}
}

func TestRunBadSize(t *testing.T) {
	var b strings.Builder
	if err := run(&b, 0, ""); err == nil {
		t.Fatal("zero size accepted")
	}
	if err := run(&b, 1<<20, ""); err == nil {
		t.Fatal("oversized config accepted")
	}
}
