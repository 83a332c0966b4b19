package core

import (
	"math"
	"sort"
	"testing"
)

func TestAllConfigurations(t *testing.T) {
	refs := AllConfigurations()
	// 15 apps, 38 configurations total (Table 1 rows, duplicates merged).
	if len(refs) != 38 {
		t.Fatalf("configurations = %d, want 38", len(refs))
	}
	seen := map[WorkloadRef]bool{}
	for _, r := range refs {
		if seen[r] {
			t.Fatalf("duplicate configuration %+v", r)
		}
		seen[r] = true
	}
}

func TestTable1Regeneration(t *testing.T) {
	rows, err := Table1(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 38 {
		t.Fatalf("rows = %d, want 38", len(rows))
	}
	// Spot checks against the paper's Table 1.
	find := func(app string, ranks int) Table1Row {
		for _, r := range rows {
			if r.App == app && r.Ranks == ranks {
				return r
			}
		}
		t.Fatalf("row %s/%d missing", app, ranks)
		return Table1Row{}
	}
	amg := find("AMG", 1728)
	if math.Abs(amg.VolMB-1208) > 15 {
		t.Errorf("AMG-1728 volume = %v, want ~1208", amg.VolMB)
	}
	if amg.P2PPct < 99.99 {
		t.Errorf("AMG-1728 p2p = %v%%, want 100%%", amg.P2PPct)
	}
	fft := find("BigFFT", 100)
	if fft.CollPct < 99.99 {
		t.Errorf("BigFFT coll = %v%%, want 100%%", fft.CollPct)
	}
	if math.Abs(fft.RateMBps-6340) > 100 {
		t.Errorf("BigFFT-100 rate = %v, want ~6340", fft.RateMBps)
	}
	partisn := find("PARTISN", 168)
	if !partisn.Star {
		t.Error("PARTISN should carry the derived-datatype star")
	}
	if partisn.TimeS < 2e6 || partisn.TimeS > 2.2e6 {
		t.Errorf("PARTISN time = %v, want ~2.1e6", partisn.TimeS)
	}
}

func TestTable2Regeneration(t *testing.T) {
	rows, err := Table2(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 17 {
		t.Fatalf("rows = %d, want 17", len(rows))
	}
	if rows[0].Size != 8 || rows[0].Torus.String() != "(2,2,2)" {
		t.Errorf("first row = %+v", rows[0])
	}
	last := rows[len(rows)-1]
	if last.Size != 1728 || last.Dragonfly.String() != "(10,5,5)" || last.FatTree.Nodes != 13824 {
		t.Errorf("last row = %+v", last)
	}
}

func TestTable4Dimensionality(t *testing.T) {
	rows, err := Table4(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(Table4Workloads) {
		t.Fatalf("rows = %d", len(rows))
	}
	byKey := map[string]Table4Row{}
	for _, r := range rows {
		byKey[keyOf(r.App, r.Ranks)] = r
		// Locality never decreases when the folding dimensionality can
		// embed the lower one exactly; at minimum 3D >= 1D must hold for
		// these workloads per the paper ("locality improves for all
		// applications with the number of dimensions").
		if r.Loc3D < r.Loc1D {
			t.Errorf("%s/%d: 3D %v < 1D %v", r.App, r.Ranks, r.Loc3D, r.Loc1D)
		}
	}
	// AMG and LULESH are three-dimensional: 100% at 3D.
	for _, k := range []string{keyOf("AMG", 216), keyOf("LULESH", 64), keyOf("LULESH", 512)} {
		if byKey[k].Loc3D != 100 {
			t.Errorf("%s: 3D locality = %v, want 100", k, byKey[k].Loc3D)
		}
	}
	// PARTISN is two-dimensional: 2D locality peaks (at 100%) and beats
	// its 3D folding.
	p := byKey[keyOf("PARTISN", 168)]
	if p.Loc2D != 100 {
		t.Errorf("PARTISN 2D locality = %v, want 100", p.Loc2D)
	}
	if p.Loc2D <= p.Loc3D {
		t.Errorf("PARTISN 2D %v should beat 3D %v", p.Loc2D, p.Loc3D)
	}
	// CNS has no strict dimensional alignment: all below 100.
	c := byKey[keyOf("Boxlib CNS", 64)]
	if c.Loc3D >= 100 {
		t.Errorf("CNS 3D locality = %v, want < 100", c.Loc3D)
	}
}

func keyOf(app string, ranks int) string {
	return app + "/" + string(rune('0'+ranks/1000)) + string(rune('0'+(ranks/100)%10)) +
		string(rune('0'+(ranks/10)%10)) + string(rune('0'+ranks%10))
}

func TestFigure1LULESHRank0(t *testing.T) {
	curve, err := Figure1("LULESH", 64, 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Rank 0 is a corner of the 4x4x4 grid: 7 partners (3 faces, 3
	// edges, 1 corner).
	if len(curve) != 7 {
		t.Fatalf("curve length = %d, want 7", len(curve))
	}
	if !sort.IsSorted(sort.Reverse(sort.Float64Slice(curve))) {
		t.Fatal("curve not descending")
	}
	if curve[0] <= curve[len(curve)-1] {
		t.Fatal("face volume should dominate corner volume")
	}
}

func TestFigure3Curves(t *testing.T) {
	curves, err := Figure3(Options{})
	if err != nil {
		t.Fatal(err)
	}
	// All workloads with p2p traffic: 15 - BigFFT - CMC = 13.
	if len(curves) != 13 {
		t.Fatalf("curves = %d, want 13", len(curves))
	}
	for _, c := range curves {
		if len(c.Shares) == 0 {
			t.Fatalf("%s: empty curve", c.App)
		}
		for i := 1; i < len(c.Shares); i++ {
			if c.Shares[i] < c.Shares[i-1]-1e-9 {
				t.Fatalf("%s: curve not monotone", c.App)
			}
		}
		last := c.Shares[len(c.Shares)-1]
		if math.Abs(last-1) > 1e-9 {
			t.Fatalf("%s: curve ends at %v", c.App, last)
		}
		// The curve crosses 90% at the selectivity (mean vs curve are
		// different aggregations; allow slack of a few partners).
		cross := len(c.Shares)
		for i, s := range c.Shares {
			if s >= 0.9 {
				cross = i + 1
				break
			}
		}
		if math.Abs(float64(cross)-c.Selectivity) > 6 {
			t.Errorf("%s: curve crossing %d far from selectivity %v", c.App, cross, c.Selectivity)
		}
	}
}

func TestFigure4AMGSaturation(t *testing.T) {
	curves, err := Figure4("AMG", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(curves) != 4 {
		t.Fatalf("curves = %d, want 4", len(curves))
	}
	// Selectivity grows with scale but saturates: each step increase is
	// no larger than the previous (the paper's Figure 4 story), and the
	// total spread stays small.
	sel := make([]float64, len(curves))
	for i, c := range curves {
		sel[i] = c.Selectivity
	}
	for i := 1; i < len(sel); i++ {
		if sel[i] < sel[i-1]-0.5 {
			t.Errorf("selectivity decreased: %v", sel)
		}
	}
	if sel[len(sel)-1] > 3*sel[0] {
		t.Errorf("no saturation: %v", sel)
	}
	if _, err := Figure4("NoSuchApp", Options{}); err == nil {
		t.Fatal("unknown app accepted")
	}
}

func TestFigure5MultiCore(t *testing.T) {
	series, err := Figure5(512, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Configurations with >= 512 ranks: AMG 1728, AMR 1728, BigFFT 1024,
	// CNS 1024, BoxMG 1024, MOCFE 1024, Nekbone 1024, CMC 1024,
	// LULESH 512, FillBoundary 1000, MiniFE 1152, MultiGrid_C 1000,
	// Crystal Router 1000 = 13.
	if len(series) != 13 {
		t.Fatalf("series = %d, want 13", len(series))
	}
	for _, s := range series {
		if len(s.Shares) != len(Figure5CoreCounts) {
			t.Fatalf("%s: wrong length", s.App)
		}
		if math.Abs(s.Shares[0]-1) > 1e-12 {
			t.Errorf("%s: 1 core/node share = %v, want 1", s.App, s.Shares[0])
		}
		for i, sh := range s.Shares {
			if sh < 0 || sh > 1 {
				t.Errorf("%s: share[%d] = %v", s.App, i, sh)
			}
		}
		// Paper: saturation by 8-16 cores; beyond 16 the remaining
		// reduction is small for locality-bearing workloads. Assert the
		// weaker, universal property: shares at 48 cores <= shares at 1.
		if s.Shares[len(s.Shares)-1] > s.Shares[0] {
			t.Errorf("%s: inter-node traffic grew with cores", s.App)
		}
	}
}

func TestSummarizeClaimsOnSubset(t *testing.T) {
	var rows []*Analysis
	for _, ref := range []WorkloadRef{
		{"AMG", 8}, {"AMG", 27}, {"LULESH", 64}, {"Crystal Router", 10},
		{"BigFFT", 9}, {"MiniFE", 18},
	} {
		a, err := AnalyzeApp(ref.App, ref.Ranks, Options{})
		if err != nil {
			t.Fatal(err)
		}
		rows = append(rows, a)
	}
	c := SummarizeClaims(rows)
	if c.TotalConfigs != 6 || c.P2PConfigs != 5 {
		t.Fatalf("config counts: %+v", c)
	}
	// All these small workloads have selectivity <= 10.
	if c.SelectivityLE10Pct != 100 {
		t.Errorf("selectivity<=10 = %v%%", c.SelectivityLE10Pct)
	}
	// Torus wins every small configuration.
	if c.TorusWinsSmall != c.SmallConfigs {
		t.Errorf("torus wins %d of %d small configs", c.TorusWinsSmall, c.SmallConfigs)
	}
	if c.MaxSelectivity <= 0 {
		t.Error("max selectivity missing")
	}
}

func TestSimTableDefaults(t *testing.T) {
	rows, err := SimTable([]WorkloadRef{{App: "LULESH", Ranks: 64}}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d, want 3 (one per topology)", len(rows))
	}
	kinds := map[string]bool{}
	for _, r := range rows {
		kinds[r.Topology] = true
		if r.Messages == 0 || r.MeanLatency <= 0 {
			t.Fatalf("empty stats: %+v", r)
		}
		if r.MeanQueueDelay < 0 {
			t.Fatalf("negative queue delay: %v", r.MeanQueueDelay)
		}
	}
	if !kinds["torus"] || !kinds["fattree"] || !kinds["dragonfly"] {
		t.Fatalf("kinds = %v", kinds)
	}
	if _, err := SimTable([]WorkloadRef{{App: "NoSuch", Ranks: 1}}, Options{}); err == nil {
		t.Fatal("unknown app accepted")
	}
}

func TestScorecard(t *testing.T) {
	// Build a subset of rows covering several anchors.
	var rows []*Analysis
	for _, ref := range []WorkloadRef{
		{"LULESH", 64}, {"AMG", 216}, {"PARTISN", 168}, {"Crystal Router", 10}, {"AMG", 8},
	} {
		a, err := AnalyzeApp(ref.App, ref.Ranks, Options{})
		if err != nil {
			t.Fatal(err)
		}
		rows = append(rows, a)
	}
	card := Scorecard(rows)
	if len(card) < 8 {
		t.Fatalf("scorecard rows = %d", len(card))
	}
	byClaim := map[string]ScoreRow{}
	for _, r := range card {
		byClaim[r.Claim] = r
		if r.Verdict != "MATCH" && r.Verdict != "CLOSE" && r.Verdict != "DIFF" {
			t.Fatalf("bad verdict %q", r.Verdict)
		}
	}
	// Structural anchors must MATCH on these workloads.
	for _, claim := range []string{
		"LULESH/64 peers", "PARTISN/168 peers", "Crystal Router/10 peers",
		"AMG/216 rank distance", "LULESH/64 selectivity", "AMG/8 fat tree avg hops",
	} {
		r, ok := byClaim[claim]
		if !ok {
			t.Fatalf("missing anchor %q", claim)
		}
		if r.Verdict != "MATCH" {
			t.Errorf("%s: verdict %s (paper %v, measured %v)", claim, r.Verdict, r.Paper, r.Measured)
		}
	}
	match, closeN, diff := ScorecardSummary(card)
	if match+closeN+diff != len(card) {
		t.Fatal("summary counts do not add up")
	}
}

func TestVerdictBands(t *testing.T) {
	if v := verdict(100, 105, 10); v != "MATCH" {
		t.Errorf("5%% dev = %s", v)
	}
	if v := verdict(100, 125, 10); v != "CLOSE" {
		t.Errorf("25%% dev = %s", v)
	}
	if v := verdict(100, 200, 10); v != "DIFF" {
		t.Errorf("100%% dev = %s", v)
	}
	if v := verdict(0, 0, 10); v != "MATCH" {
		t.Errorf("0/0 = %s", v)
	}
	if v := verdict(0, 1, 10); v != "DIFF" {
		t.Errorf("0/1 = %s", v)
	}
}
