package design_test

import (
	"bytes"
	"os"
	"testing"

	"netloc/internal/core"
	"netloc/internal/design"
	"netloc/internal/report"
	"netloc/internal/workcache"
)

// TestSearchGoldenSheet pins the LULESH/512 design sheet byte for byte
// (SHA-256 4350beea…, the sheet bench/testdata/design.sha256 pins) at
// one worker and at four, so a change to mapping, netmodel, simnet or
// the ranking that moves any row fails here and not only in a benchmark
// run.
func TestSearchGoldenSheet(t *testing.T) {
	want, err := os.ReadFile("testdata/lulesh512_sheet.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, par := range []int{1, 4} {
		sheet, err := design.Search(design.Request{App: "LULESH", Ranks: 512},
			core.Options{Parallelism: par, Cache: workcache.New(0)})
		if err != nil {
			t.Fatal(err)
		}
		got, err := report.JSONBytes(sheet)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			i := 0
			for i < len(got) && i < len(want) && got[i] == want[i] {
				i++
			}
			lo := max(i-200, 0)
			t.Errorf("parallelism %d: sheet differs from the golden at byte %d of %d:\n got …%s…\nwant …%s…",
				par, i, len(want), got[lo:min(i+80, len(got))], want[lo:min(i+80, len(want))])
		}
	}
}
