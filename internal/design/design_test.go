package design

import (
	"encoding/json"
	"math"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"netloc/internal/core"
	"netloc/internal/obs"
	"netloc/internal/topology"
	"netloc/internal/trace"
	"netloc/internal/workcache"
)

// smallRequest is the shared search fixture: small enough to keep the
// sweep fast, large enough to admit all four families.
func smallRequest() Request {
	return Request{
		App:   "milc",
		Ranks: 64,
		Constraints: Constraints{
			MaxCandidates: 2,
		},
	}
}

func mustSearch(t *testing.T, req Request, opts core.Options) *Sheet {
	t.Helper()
	sheet, err := Search(req, opts)
	if err != nil {
		t.Fatal(err)
	}
	return sheet
}

// TestSearchDeterministicAcrossWorkers is the core determinism claim:
// the ranked sheet is byte-identical at -j 1, 4, and 16 — and at every
// artifact-cache mode (disabled, cold per run, warm across runs), since
// cached traces and matrices must be indistinguishable from fresh ones.
func TestSearchDeterministicAcrossWorkers(t *testing.T) {
	warm := workcache.New(0)
	modes := []struct {
		name  string
		cache func() *workcache.Cache
	}{
		{"disabled", func() *workcache.Cache { return nil }},
		{"cold", func() *workcache.Cache { return workcache.New(0) }},
		{"warm", func() *workcache.Cache { return warm }},
	}
	var want []byte
	for _, mode := range modes {
		for _, workers := range []int{1, 4, 16} {
			sheet := mustSearch(t, smallRequest(), core.Options{Parallelism: workers, Cache: mode.cache()})
			got, err := json.Marshal(sheet)
			if err != nil {
				t.Fatal(err)
			}
			if want == nil {
				want = got
				continue
			}
			if string(got) != string(want) {
				t.Fatalf("sheet bytes differ (cache %s, -j%d):\nwant: %s\ngot:  %s", mode.name, workers, want, got)
			}
		}
	}
	if s := warm.Stats(); s.Hits == 0 {
		t.Fatalf("warm cache recorded no hits across repeated searches: %+v", s)
	}
}

// TestSearchCoversFamiliesAndMappings checks the acceptance shape: every
// requested family appears in the ranked rows, every row carries both
// mappings, and the metric block is populated.
func TestSearchCoversFamiliesAndMappings(t *testing.T) {
	sheet := mustSearch(t, smallRequest(), core.Options{})
	families := map[string]bool{}
	mappings := map[string]bool{}
	for _, r := range sheet.Rows {
		families[r.Family] = true
		mappings[r.Mapping] = true
		if r.AvgHops <= 0 {
			t.Errorf("%s: avg hops %g not populated", r.Name, r.AvgHops)
		}
		if r.MakespanSec <= 0 {
			t.Errorf("%s: makespan %g not populated", r.Name, r.MakespanSec)
		}
		if r.Cost.Switches <= 0 || r.Cost.Links <= 0 || r.CostUnits <= 0 {
			t.Errorf("%s: cost %+v not populated", r.Name, r.Cost)
		}
		if r.MeanPathLength <= 0 || r.MaxHops <= 0 {
			t.Errorf("%s: path stats (%g, %d) not populated", r.Name, r.MeanPathLength, r.MaxHops)
		}
		if r.Nodes < sheet.Ranks {
			t.Errorf("%s: %d nodes do not cover %d ranks", r.Name, r.Nodes, sheet.Ranks)
		}
	}
	for _, fam := range Families() {
		if !families[fam] {
			t.Errorf("family %s missing from sheet", fam)
		}
	}
	for _, m := range DefaultMappings() {
		if !mappings[m] {
			t.Errorf("mapping %s missing from sheet", m)
		}
	}
	if sheet.App != "MILC" {
		t.Errorf("sheet app = %q, want MILC", sheet.App)
	}
}

// TestSheetRankedAndTieBroken pins the ordering contract: rows sorted by
// (score, name) with contiguous 1-based ranks.
func TestSheetRankedAndTieBroken(t *testing.T) {
	sheet := mustSearch(t, smallRequest(), core.Options{})
	if len(sheet.Rows) < 2 {
		t.Fatalf("want multiple rows, got %d", len(sheet.Rows))
	}
	for i, r := range sheet.Rows {
		if r.Rank != i+1 {
			t.Errorf("row %d has rank %d", i, r.Rank)
		}
		if i == 0 {
			continue
		}
		prev := sheet.Rows[i-1]
		if r.Score < prev.Score {
			t.Errorf("rows out of score order: %s (%g) after %s (%g)", r.Name, r.Score, prev.Name, prev.Score)
		}
		if r.Score == prev.Score && r.Name < prev.Name {
			t.Errorf("tie not broken by name: %s after %s", r.Name, prev.Name)
		}
	}
}

// TestRankRowsTieBreak forces an exact tie and checks the name order.
func TestRankRowsTieBreak(t *testing.T) {
	rows := []Row{
		{Name: "b", AvgHops: 2, MakespanSec: 2, CostUnits: 2},
		{Name: "a", AvgHops: 2, MakespanSec: 2, CostUnits: 2},
	}
	rankRows(rows, Weights{}.withDefaults())
	if rows[0].Name != "a" || rows[1].Name != "b" {
		t.Fatalf("tie-break order = %s, %s; want a, b", rows[0].Name, rows[1].Name)
	}
	if rows[0].Score != rows[1].Score {
		t.Fatalf("scores differ on identical metrics: %g vs %g", rows[0].Score, rows[1].Score)
	}
}

// TestCandidatesEnumeration checks the per-family enumerators against
// their documented bounds.
func TestCandidatesEnumeration(t *testing.T) {
	cfgs, err := Candidates(512, Families(), Constraints{})
	if err != nil {
		t.Fatal(err)
	}
	perFamily := map[string]int{}
	for _, c := range cfgs {
		perFamily[c.Kind]++
		if c.Nodes < 512 {
			t.Errorf("%s%s provides %d nodes < 512 ranks", c.Kind, c, c.Nodes)
		}
		topo, err := c.Build()
		if err != nil {
			t.Errorf("%s%s does not build: %v", c.Kind, c, err)
			continue
		}
		if topo.Nodes() != c.Nodes {
			t.Errorf("%s%s built %d nodes, config says %d", c.Kind, c, topo.Nodes(), c.Nodes)
		}
	}
	for _, fam := range Families() {
		if perFamily[fam] == 0 {
			t.Errorf("no %s candidates for 512 ranks", fam)
		}
		if perFamily[fam] > DefaultMaxCandidates {
			t.Errorf("%d %s candidates exceed the %d cap", perFamily[fam], fam, DefaultMaxCandidates)
		}
	}
}

// TestCandidatesRespectRadix: a radix cap below 7 rules out torus/mesh
// routers entirely, and fat trees shrink to the feasible ladder rungs.
func TestCandidatesRespectRadix(t *testing.T) {
	cfgs, err := Candidates(64, Families(), Constraints{MaxRadix: 6})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cfgs {
		switch c.Kind {
		case "torus", "mesh":
			t.Errorf("grid candidate %s%s enumerated under radix cap 6", c.Kind, c)
		case "fattree":
			if c.Radix > 6 {
				t.Errorf("fattree radix %d exceeds cap 6", c.Radix)
			}
		case "dragonfly":
			if r := c.P + (c.A - 1) + c.H; r > 6 {
				t.Errorf("dragonfly %s radix %d exceeds cap 6", c, r)
			}
		}
	}
}

// TestSearchCostCapFilters: an impossible switch budget filters every
// candidate and surfaces ErrNoCandidates, not an empty sheet.
func TestSearchCostCapFilters(t *testing.T) {
	req := smallRequest()
	req.Constraints.MaxSwitches = 1
	_, err := Search(req, core.Options{})
	if err == nil {
		t.Fatal("want ErrNoCandidates, got nil")
	}
	if !strings.Contains(err.Error(), "no feasible candidates") {
		t.Fatalf("unexpected error: %v", err)
	}
}

// TestValidateErrors walks the request validation table.
func TestValidateErrors(t *testing.T) {
	cases := []struct {
		name string
		req  Request
		want string
	}{
		{"no app", Request{Ranks: 8}, "missing app"},
		{"non-positive ranks", Request{App: "milc", Ranks: 0}, "non-positive node count"},
		{"negative ranks", Request{App: "milc", Ranks: -4}, "non-positive node count"},
		{"tiny radix", Request{App: "milc", Ranks: 8, Constraints: Constraints{MaxRadix: 2}}, "max_radix 2 too small"},
		{"negative switches", Request{App: "milc", Ranks: 8, Constraints: Constraints{MaxSwitches: -1}}, "negative max_switches"},
		{"empty families", Request{App: "milc", Ranks: 8, Families: []string{}}, "empty candidate set"},
		{"unknown family", Request{App: "milc", Ranks: 8, Families: []string{"hypercube"}}, "unknown family"},
		{"empty mappings", Request{App: "milc", Ranks: 8, Mappings: []string{}}, "empty candidate set"},
		{"unknown mapping", Request{App: "milc", Ranks: 8, Mappings: []string{"simulated-annealing"}}, "unknown mapping"},
		{"negative weight", Request{App: "milc", Ranks: 8, Weights: Weights{Hops: -1}}, "negative score weights"},
	}
	for _, tc := range cases {
		_, err := Search(tc.req, core.Options{})
		if err == nil {
			t.Errorf("%s: want error containing %q, got nil", tc.name, tc.want)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not contain %q", tc.name, err, tc.want)
		}
	}
	// Explicitly empty sets must fail even though nil selects defaults.
	if _, err := Search(Request{App: "milc", Ranks: 8, Families: []string{}}, core.Options{}); err == nil {
		t.Error("explicit empty families accepted")
	}
}

// TestSearchUnknownApp lists the admissible names.
func TestSearchUnknownApp(t *testing.T) {
	_, err := Search(Request{App: "doom", Ranks: 8}, core.Options{})
	if err == nil || !strings.Contains(err.Error(), "unknown application") {
		t.Fatalf("want unknown-application error, got %v", err)
	}
	if !strings.Contains(err.Error(), "milc") {
		t.Errorf("error does not list design extras: %v", err)
	}
}

// TestSearchHonoursRankCaps: a search's node count is held to the
// options' rank caps (core.Options.CheckRanks) before anything is
// generated, extrapolated or sized by it, with a "design:" error the
// service answers with a 400.
func TestSearchHonoursRankCaps(t *testing.T) {
	_, err := Search(Request{App: "milc", Ranks: 512}, core.Options{MaxRanks: 64})
	if err == nil || !strings.Contains(err.Error(), "design: core: 512 ranks, outside [1, 64] (MaxRanks)") {
		t.Fatalf("milc/512 under MaxRanks 64: err = %v, want 512 refused naming the cap", err)
	}

	// Above what topology.Configs can size (13,824 ranks), a named app
	// would otherwise be extrapolated by GenerateAt first.
	cache := workcache.New(0)
	_, err = Search(Request{App: "LULESH", Ranks: 64000}, core.Options{Parallelism: 1, Cache: cache})
	if err == nil || !strings.HasPrefix(err.Error(), "design: core: 64000 ranks") {
		t.Fatalf("LULESH/64000: err = %v, want the rank count refused", err)
	}
	if st := cache.Stats(); st.Misses != 0 {
		t.Fatalf("refusing LULESH/64000 missed the workcache %d times, want 0 (nothing generated)", st.Misses)
	}

	// An attached trace declaring 4,194,304 ranks with one message is
	// refused before its matrices are sized.
	huge := &trace.Trace{
		Meta:   trace.Meta{App: "huge", Ranks: 1 << 22, WallTime: 1},
		Events: []trace.Event{{Rank: 0, Op: trace.OpSend, Peer: 1, Root: -1, Bytes: 8}},
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err = Search(Request{Trace: huge}, core.Options{Parallelism: 1})
	runtime.ReadMemStats(&after)
	if err == nil || !strings.HasPrefix(err.Error(), "design: core: 4194304 ranks") {
		t.Fatalf("4,194,304-rank trace: err = %v, want the declared rank count refused", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Fatalf("refusing the trace allocated %d KiB, want under 1 MiB", got>>10)
	}
}

// TestSearchRegistryAppCaseInsensitive resolves a calibrated app with
// folded case at one of its configured scales.
func TestSearchRegistryAppCaseInsensitive(t *testing.T) {
	sheet := mustSearch(t, Request{
		App:      "lulesh",
		Ranks:    27,
		Families: []string{"torus"},
		Mappings: []string{core.MappingConsecutive},
		Constraints: Constraints{
			MaxCandidates: 1,
		},
	}, core.Options{})
	if len(sheet.Rows) != 1 {
		t.Fatalf("want 1 row, got %d", len(sheet.Rows))
	}
	if sheet.App != "LULESH" {
		t.Errorf("sheet app = %q, want LULESH (registry spelling)", sheet.App)
	}
}

// TestSearchAttachedTrace uses an uploaded trace as the workload.
func TestSearchAttachedTrace(t *testing.T) {
	tr, err := milcTrace(16)
	if err != nil {
		t.Fatal(err)
	}
	sheet := mustSearch(t, Request{
		Trace:    tr,
		Families: []string{"fattree"},
		Mappings: []string{core.MappingGreedy},
	}, core.Options{})
	if sheet.Ranks != 16 {
		t.Errorf("sheet ranks = %d, want 16 from trace metadata", sheet.Ranks)
	}
}

// TestMilcTraceShape checks the design-only generator: pure p2p halo
// exchange on a 4D grid, valid against the trace model.
func TestMilcTraceShape(t *testing.T) {
	tr, err := milcTrace(512)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Meta.Ranks != 512 || tr.Meta.WallTime <= 0 {
		t.Fatalf("bad meta %+v", tr.Meta)
	}
	for _, e := range tr.Events {
		if e.Op != trace.OpSend {
			t.Fatalf("non-p2p op %s in milc trace", e.Op)
		}
	}
	// 512 = 8*4*4*4: every dim > 2, so all 8 neighbors are distinct.
	if want := milcIterations * 512 * 8; len(tr.Events) != want {
		t.Fatalf("milc events = %d, want %d", len(tr.Events), want)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestDims4 pins the factorization: near-balanced, largest first, and
// huge primes rejected.
func TestDims4(t *testing.T) {
	d, err := dims4(512)
	if err != nil {
		t.Fatal(err)
	}
	if d != [4]int{8, 4, 4, 4} {
		t.Errorf("dims4(512) = %v, want [8 4 4 4]", d)
	}
	if _, err := dims4(2 * 1009); err == nil {
		t.Error("dims4 accepted a huge prime factor")
	}
	d, err = dims4(1)
	if err != nil || d != [4]int{1, 1, 1, 1} {
		t.Errorf("dims4(1) = %v, %v", d, err)
	}
}

// TestCanonicalKeyStable: defaults filled two ways share a cache key;
// different constraints do not.
func TestCanonicalKeyStable(t *testing.T) {
	a := Request{App: "MILC", Ranks: 64}.CanonicalKey()
	b := Request{App: "milc", Ranks: 64, Families: Families(), Mappings: DefaultMappings(),
		Weights: Weights{1, 1, 1}}.CanonicalKey()
	if a != b {
		t.Errorf("equivalent requests key differently:\n%s\n%s", a, b)
	}
	c := Request{App: "milc", Ranks: 64, Constraints: Constraints{MaxLinks: 5}}.CanonicalKey()
	if a == c {
		t.Error("different constraints share a key")
	}
}

// TestExtremeScaleFamiliesEnumerate pins the acceptance criterion of the
// family expansion: under default constraints every new family yields at
// least one candidate at the paper-adjacent scales, and each candidate
// builds.
func TestExtremeScaleFamiliesEnumerate(t *testing.T) {
	for _, fam := range []string{"slimfly", "jellyfish", "hyperx"} {
		for _, ranks := range []int{64, 256, 1728} {
			cfgs, err := Candidates(ranks, []string{fam}, Constraints{})
			if err != nil {
				t.Fatalf("%s/%d: %v", fam, ranks, err)
			}
			if len(cfgs) == 0 {
				t.Fatalf("%s/%d: no candidates under default constraints", fam, ranks)
			}
			for _, cfg := range cfgs {
				topo, err := cfg.Build()
				if err != nil {
					t.Fatalf("%s/%d: %s%s: %v", fam, ranks, cfg.Kind, cfg, err)
				}
				if topo.Nodes() < ranks {
					t.Fatalf("%s/%d: %s%s provides %d nodes", fam, ranks, cfg.Kind, cfg, topo.Nodes())
				}
			}
		}
	}
}

// TestJellyfishSearchDeterministicAcrossWorkers is the family-specific
// determinism regression: the seeded random wiring must give the same
// ranked sheet at -j 1/4/16 whether topologies are rebuilt per cell
// (cache disabled), built once per run (cold), or shared across runs
// (warm) — i.e. the wiring depends only on the Config, never on build
// order or sharing.
func TestJellyfishSearchDeterministicAcrossWorkers(t *testing.T) {
	req := smallRequest()
	req.Families = []string{"jellyfish"}
	req.Constraints.MaxCandidates = 3
	warm := workcache.New(0)
	modes := []struct {
		name  string
		cache func() *workcache.Cache
	}{
		{"disabled", func() *workcache.Cache { return nil }},
		{"cold", func() *workcache.Cache { return workcache.New(0) }},
		{"warm", func() *workcache.Cache { return warm }},
	}
	var want []byte
	for _, mode := range modes {
		for _, workers := range []int{1, 4, 16} {
			sheet := mustSearch(t, req, core.Options{Parallelism: workers, Cache: mode.cache()})
			for _, r := range sheet.Rows {
				if r.Family != "jellyfish" {
					t.Fatalf("unexpected family %s in jellyfish-only sheet", r.Family)
				}
			}
			got, err := json.Marshal(sheet)
			if err != nil {
				t.Fatal(err)
			}
			if want == nil {
				want = got
				continue
			}
			if string(got) != string(want) {
				t.Fatalf("jellyfish sheet bytes differ (cache %s, -j%d)", mode.name, workers)
			}
		}
	}
}

// TestSearchSpanTree checks the stage spans of a search without an
// artifact cache: the root holds the generate and accumulate stages and
// one candidate per configuration; every unfiltered candidate holds its
// topology build, its path statistics and, per mapping, the mapping,
// netmodel and simnet stages; a cost-filtered candidate holds only its build and its filtered
// count; and every span has ended.
func TestSearchSpanTree(t *testing.T) {
	req := smallRequest()
	req.Families = []string{"torus", "fattree", "dragonfly"}
	req.Mappings = DefaultMappings()
	cfgs, err := Candidates(req.Ranks, req.Families, req.Constraints)
	if err != nil {
		t.Fatal(err)
	}
	// Cap the switches at the fewest any candidate has, so the search
	// keeps some candidates and filters the others.
	fewest, most := math.MaxInt, 0
	labels := map[string]bool{}
	for _, cfg := range cfgs {
		topo, err := cfg.Build()
		if err != nil {
			t.Fatal(err)
		}
		sw := topology.CostOf(topo).Switches
		fewest, most = min(fewest, sw), max(most, sw)
		labels[cfg.Kind+cfg.String()] = true
	}
	if fewest == most {
		t.Fatalf("every candidate has %d switches: the cap filters all or none", fewest)
	}
	req.Constraints.MaxSwitches = fewest

	root := obs.NewTracer(1).StartRun("design")
	sheet, err := Search(req, core.Options{Parallelism: 2, Span: root})
	root.End()
	if err != nil {
		t.Fatal(err)
	}
	d := root.Data()
	var walk func(s obs.SpanData)
	walk = func(s obs.SpanData) {
		if !s.Ended {
			t.Errorf("span %s (%s) never ended", s.Name, s.Label)
		}
		for _, c := range s.Children {
			walk(c)
		}
	}
	walk(d)
	if n := len(d.Children); n != 2+len(cfgs) || d.Children[0].Name != "generate" || d.Children[1].Name != "accumulate" {
		t.Fatalf("root children %v, want generate, accumulate and %d candidates", spanNames(d.Children), len(cfgs))
	}
	var filtered int
	for _, c := range d.Children[2:] {
		if c.Name != "candidate" || !labels[c.Label] {
			t.Fatalf("root child %s (%s), want a candidate of %v", c.Name, c.Label, labels)
		}
		delete(labels, c.Label)
		if c.Counts["filtered"] == 1 {
			filtered++
			if names := spanNames(c.Children); !slices.Equal(names, []string{"topology"}) || len(c.Counts) != 1 {
				t.Errorf("filtered candidate %s: children %v, counts %v; want a topology build and the filtered count", c.Label, names, c.Counts)
			}
			continue
		}
		want := []string{"topology", "pathstats"}
		for range req.Mappings {
			want = append(want, "mapping", "netmodel", "simnet")
		}
		if names := spanNames(c.Children); !slices.Equal(names, want) || len(c.Counts) != 0 {
			t.Errorf("candidate %s: children %v, counts %v; want %v and no counts", c.Label, names, c.Counts, want)
			continue
		}
		if c.Children[0].Label != c.Label {
			t.Errorf("candidate %s: topology span labelled %q", c.Label, c.Children[0].Label)
		}
		for i, m := range req.Mappings {
			mp, nm, sim := c.Children[2+3*i], c.Children[3+3*i], c.Children[4+3*i]
			if mp.Label != m || sim.Label != m {
				t.Errorf("candidate %s: mapping %d spans labelled %q and %q, want %q", c.Label, i, mp.Label, sim.Label, m)
			}
			if nm.Counts["packets"] == 0 || nm.Counts["packet_hops"] == 0 || sim.Counts["sim_messages"] == 0 {
				t.Errorf("candidate %s under %s: netmodel counts %v, simnet counts %v", c.Label, m, nm.Counts, sim.Counts)
			}
		}
	}
	if filtered == 0 || filtered != sheet.Filtered || len(sheet.Rows) == 0 {
		t.Errorf("%d candidate spans filtered, sheet filtered %d of %d with %d rows", filtered, sheet.Filtered, sheet.Configs, len(sheet.Rows))
	}
}

// TestSearchReusesCoreMatrices: core's registry analyses and the design
// search share one cache entry for a configured scale's trace and
// matrices, so a search after AnalyzeApp on the same cache records no
// generate and no accumulate span (TestSearchSpanTree sees both without
// a cache), and its sheet equals an uncached search's.
func TestSearchReusesCoreMatrices(t *testing.T) {
	cache := workcache.New(0)
	if _, err := core.AnalyzeApp("LULESH", 64, core.Options{Cache: cache}); err != nil {
		t.Fatal(err)
	}
	req := Request{App: "LULESH", Ranks: 64, Families: []string{"torus"}, Constraints: Constraints{MaxCandidates: 1}}
	root := obs.NewTracer(1).StartRun("design")
	sheet, err := Search(req, core.Options{Parallelism: 1, Cache: cache, Span: root})
	root.End()
	if err != nil {
		t.Fatal(err)
	}
	names := spanNames(root.Data().Children)
	if slices.Contains(names, "generate") || slices.Contains(names, "accumulate") || !slices.Contains(names, "candidate") {
		t.Errorf("root children %v, want candidates only", names)
	}
	plain := mustSearch(t, req, core.Options{Parallelism: 1})
	if !reflect.DeepEqual(sheet, plain) {
		t.Error("the sheet on core's cached matrices differs from an uncached search")
	}
}

func spanNames(spans []obs.SpanData) []string {
	names := make([]string, len(spans))
	for i, s := range spans {
		names[i] = s.Name
	}
	return names
}

// allPairsPathStats is the loop topology.PathStats replaced: every
// unordered node pair scored once, the total doubled.
func allPairsPathStats(topo topology.Topology) (mpl float64, maxHops int) {
	n := topo.Nodes()
	if n < 2 {
		return 0, 0
	}
	var total uint64
	for s := 0; s < n; s++ {
		for d := s + 1; d < n; d++ {
			h := topo.HopCount(s, d)
			total += uint64(h)
			maxHops = max(maxHops, h)
		}
	}
	return float64(2*total) / float64(n*(n-1)), maxHops
}

// The sheet's path statistics equal the all-pairs loop bit for bit on
// every configuration a search enumerates at 8, 64, 100 and 512 ranks.
func TestPathStatsMatchesAllPairs(t *testing.T) {
	kinds := map[string]int{}
	for _, ranks := range []int{8, 64, 100, 512} {
		cfgs, err := Candidates(ranks, Families(), Constraints{})
		if err != nil {
			t.Fatal(err)
		}
		for _, cfg := range cfgs {
			topo, err := cfg.Build()
			if err != nil {
				t.Fatal(err)
			}
			mpl, hops := topology.PathStats(topo)
			wantMPL, wantHops := allPairsPathStats(topo)
			if math.Float64bits(mpl) != math.Float64bits(wantMPL) || hops != wantHops {
				t.Errorf("%s: PathStats (%v, %d), all pairs (%v, %d)", topo.Name(), mpl, hops, wantMPL, wantHops)
			}
			kinds[cfg.Kind]++
		}
	}
	if len(kinds) != len(Families()) {
		t.Errorf("candidates cover %v, want every family of %v", kinds, Families())
	}
}
