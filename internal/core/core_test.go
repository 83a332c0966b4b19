package core

import (
	"errors"
	"math"
	"reflect"
	"testing"

	"netloc/internal/mpi"
	"netloc/internal/obs"
	"netloc/internal/trace"
	"netloc/internal/workcache"
	"netloc/internal/workloads"
)

func analyze(t *testing.T, app string, ranks int, opts Options) *Analysis {
	t.Helper()
	a, err := AnalyzeApp(app, ranks, opts)
	if err != nil {
		t.Fatalf("AnalyzeApp(%s, %d): %v", app, ranks, err)
	}
	return a
}

func TestAnalyzeAppUnknown(t *testing.T) {
	if _, err := AnalyzeApp("NoSuchApp", 8, Options{}); err == nil {
		t.Fatal("unknown app accepted")
	}
	if _, err := AnalyzeApp("AMG", 12345, Options{}); err == nil {
		t.Fatal("unknown scale accepted")
	}
}

func TestAnalyzeLULESH64(t *testing.T) {
	a := analyze(t, "LULESH", 64, Options{})
	if !a.HasP2P {
		t.Fatal("LULESH must have p2p traffic")
	}
	if a.Peers != 26 {
		t.Errorf("peers = %d, want 26", a.Peers)
	}
	// Paper: rank distance 15.7, selectivity 4.5 for LULESH-64; allow a
	// generous band around the published values.
	if a.RankDistance < 12 || a.RankDistance > 20 {
		t.Errorf("rank distance = %v, want ~16", a.RankDistance)
	}
	if a.Selectivity < 3 || a.Selectivity > 8 {
		t.Errorf("selectivity = %v, want ~5", a.Selectivity)
	}
	if math.Abs(a.RankLocality-100/a.RankDistance) > 1e-9 {
		t.Errorf("locality %v inconsistent with distance %v", a.RankLocality, a.RankDistance)
	}
	// All three topologies evaluated.
	for name, tr := range map[string]*TopoResult{"torus": a.Torus, "fattree": a.FatTree, "dragonfly": a.Dragonfly} {
		if tr == nil {
			t.Fatalf("%s result missing", name)
		}
		if tr.PacketHops == 0 || tr.AvgHops <= 0 {
			t.Errorf("%s: empty result %+v", name, tr)
		}
	}
	// Paper's finding: for small rank counts the torus has the lowest
	// average hop count, the dragonfly the highest.
	if !(a.Torus.AvgHops < a.FatTree.AvgHops && a.FatTree.AvgHops < a.Dragonfly.AvgHops) {
		t.Errorf("hop ordering violated: torus %v, fattree %v, dragonfly %v",
			a.Torus.AvgHops, a.FatTree.AvgHops, a.Dragonfly.AvgHops)
	}
	// Utilization far below 1% (Table 3: ~0.0004..0.0016%).
	for name, tr := range map[string]*TopoResult{"torus": a.Torus, "fattree": a.FatTree, "dragonfly": a.Dragonfly} {
		if tr.UtilizationPct <= 0 || tr.UtilizationPct > 0.1 {
			t.Errorf("%s utilization = %v%%", name, tr.UtilizationPct)
		}
	}
}

func TestAnalyzeBigFFTNoP2P(t *testing.T) {
	a := analyze(t, "BigFFT", 9, Options{})
	if a.HasP2P {
		t.Fatal("BigFFT should have no p2p")
	}
	if a.Peers != 0 || a.RankDistance != 0 || a.Selectivity != 0 {
		t.Fatalf("MPI metrics should be zero/N-A: %+v", a)
	}
	// ... but the wire traffic still drives the topologies.
	if a.Torus.PacketHops == 0 {
		t.Fatal("BigFFT wire traffic missing")
	}
	// BigFFT is the only workload with utilization beyond 1% (paper 6.3).
	if a.Torus.UtilizationPct < 1 {
		t.Errorf("BigFFT torus utilization = %v%%, want > 1%%", a.Torus.UtilizationPct)
	}
	// Fat-tree on one switch: every pair exactly 2 hops.
	if a.FatTree.AvgHops != 2 {
		t.Errorf("fat tree avg hops = %v, want 2", a.FatTree.AvgHops)
	}
}

func TestAnalyzeAMG8Peers(t *testing.T) {
	a := analyze(t, "AMG", 8, Options{})
	if a.Peers != 7 {
		t.Errorf("peers = %d, want 7", a.Peers)
	}
}

func TestAnalyzeTable1Accounting(t *testing.T) {
	a := analyze(t, "CESAR MOCFE", 64, Options{})
	// Table 1: 19.0 MB, 5.01% p2p.
	if math.Abs(a.VolMB-19.0) > 0.5 {
		t.Errorf("volume = %v MB, want 19", a.VolMB)
	}
	if math.Abs(a.P2PPct-5.01) > 1 {
		t.Errorf("p2p share = %v%%, want ~5%%", a.P2PPct)
	}
	if math.Abs(a.CollPct+a.P2PPct-100) > 1e-9 {
		t.Error("shares do not sum to 100")
	}
	if a.RateMBps <= 0 {
		t.Error("rate missing")
	}
}

func TestAnalyzeTraceCustom(t *testing.T) {
	tr := &trace.Trace{
		Meta: trace.Meta{App: "custom", Ranks: 4, WallTime: 1},
		Events: []trace.Event{
			{Rank: 0, Op: trace.OpSend, Peer: 1, Root: -1, Bytes: 9000},
			{Rank: 2, Op: trace.OpSend, Peer: 3, Root: -1, Bytes: 1000},
		},
	}
	a, err := AnalyzeTrace(tr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if a.App != "custom" || a.Ranks != 4 {
		t.Fatalf("meta lost: %+v", a)
	}
	if a.Peers != 1 {
		t.Errorf("peers = %d", a.Peers)
	}
	if a.RankDistance != 1 {
		t.Errorf("distance = %v, want 1 (both pairs adjacent)", a.RankDistance)
	}
	if a.Selectivity != 1 {
		t.Errorf("selectivity = %v, want 1", a.Selectivity)
	}
}

func TestAnalyzeCoverageOption(t *testing.T) {
	// With 100% coverage the distance includes the farthest partner.
	tr := &trace.Trace{
		Meta: trace.Meta{App: "c", Ranks: 10, WallTime: 1},
		Events: []trace.Event{
			{Rank: 0, Op: trace.OpSend, Peer: 1, Root: -1, Bytes: 95},
			{Rank: 0, Op: trace.OpSend, Peer: 9, Root: -1, Bytes: 5},
		},
	}
	a90, err := AnalyzeTrace(tr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	a100, err := AnalyzeTrace(tr, Options{Coverage: 1.0})
	if err != nil {
		t.Fatal(err)
	}
	if a90.RankDistance != 1 || a100.RankDistance != 9 {
		t.Fatalf("coverage option ignored: %v / %v", a90.RankDistance, a100.RankDistance)
	}
}

func TestAnalysisConsistencyInvariants(t *testing.T) {
	// Across a mixed set of configurations: selectivity <= peers, avg
	// hops within the topology's diameter bounds, packets consistent.
	for _, ref := range []WorkloadRef{
		{"AMG", 27}, {"Crystal Router", 100}, {"MiniFE", 18},
		{"PARTISN", 168}, {"EXMATEX CMC 2D", 64},
	} {
		a := analyze(t, ref.App, ref.Ranks, Options{})
		if a.HasP2P && a.Selectivity > float64(a.Peers) {
			t.Errorf("%s: selectivity %v > peers %d", ref.App, a.Selectivity, a.Peers)
		}
		if a.Dragonfly.AvgHops > 5 {
			t.Errorf("%s: dragonfly hops %v > 5", ref.App, a.Dragonfly.AvgHops)
		}
		if a.FatTree.AvgHops > 6 {
			t.Errorf("%s: fat tree hops %v > 6", ref.App, a.FatTree.AvgHops)
		}
		if a.Torus.Packets != a.FatTree.Packets || a.Torus.Packets != a.Dragonfly.Packets {
			t.Errorf("%s: packet counts differ across topologies", ref.App)
		}
	}
}

// TestAnalyzeParallelMatchesSequential pins the engine's determinism
// promise at the analysis level: the full Analysis — metrics, topology
// results — is identical whatever Parallelism is set to.
func TestAnalyzeParallelMatchesSequential(t *testing.T) {
	for app, ranks := range map[string]int{"LULESH": 64, "AMG": 216} {
		seq := analyze(t, app, ranks, Options{Parallelism: 1})
		for _, workers := range []int{2, 8} {
			par := analyze(t, app, ranks, Options{Parallelism: workers})
			if !reflect.DeepEqual(seq, par) {
				t.Fatalf("%s: analysis differs between Parallelism 1 and %d", app, workers)
			}
		}
	}
}

// TestExperimentsParallelMatchSequential does the same for the
// experiment-grid fan-out (Table 3 drives the widest grid).
func TestExperimentsParallelMatchSequential(t *testing.T) {
	seq, err := Table3(Options{Parallelism: 1, MaxRanks: 128})
	if err != nil {
		t.Fatal(err)
	}
	par, err := Table3(Options{Parallelism: 8, MaxRanks: 128})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq, par) {
		t.Fatal("Table3 differs between Parallelism 1 and 8")
	}
}

// TestAnalysisSpansRecordStages checks the pipeline's observability
// contract: with a span attached, every stage is recorded with its work
// counts, and the analysis result is identical to an uninstrumented run.
func TestAnalysisSpansRecordStages(t *testing.T) {
	tr := obs.NewTracer(1)
	root := tr.StartRun("analysis")
	instr := analyze(t, "LULESH", 64, Options{Parallelism: 2, Span: root})
	root.End()
	plain := analyze(t, "LULESH", 64, Options{Parallelism: 2})
	if !reflect.DeepEqual(instr, plain) {
		t.Fatal("attaching a span changed the analysis result")
	}

	counts := map[string]int64{}
	stages := map[string]int{}
	var walk func(d obs.SpanData)
	walk = func(d obs.SpanData) {
		stages[d.Name]++
		for k, v := range d.Counts {
			counts[k] += v
		}
		for _, c := range d.Children {
			walk(c)
		}
	}
	walk(tr.Runs()[0].Root)
	for _, stage := range []string{"generate", "accumulate", "mpi_metrics", "topology", "mapping", "netmodel"} {
		if stages[stage] == 0 {
			t.Errorf("stage %q not recorded (got %v)", stage, stages)
		}
	}
	// Without an artifact cache every topology is built, once per family.
	if stages["topology"] != 3 || stages["netmodel"] != 3 || stages["mapping"] != 3 {
		t.Errorf("per-topology stages = %v, want 3 each", stages)
	}
	if counts["events"] == 0 || counts["packets"] == 0 {
		t.Errorf("work counts missing: %v", counts)
	}
}

// TestMatricesMatchAcrossCacheModes pins the cached accumulate stage:
// the matrices are identical with the cache disabled, cold and warm; a
// warm call runs neither the generator nor the accumulate stage; the
// strategy is part of the key; and the registry analyses fill the same
// entry the stage reads.
func TestMatricesMatchAcrossCacheModes(t *testing.T) {
	app, err := workloads.Lookup("LULESH")
	if err != nil {
		t.Fatal(err)
	}
	key := appKey(app, 64)
	gens := 0
	gen := func() (*trace.Trace, error) {
		gens++
		return app.Generate(64)
	}
	plain, err := Matrices(key, gen, Options{})
	if err != nil {
		t.Fatal(err)
	}
	cache := workcache.New(0)
	cold, err := Matrices(key, gen, Options{Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	root := obs.NewTracer(1).StartRun("warm")
	warm, err := Matrices(key, gen, Options{Cache: cache, Span: root})
	root.End()
	if err != nil {
		t.Fatal(err)
	}
	if gens != 2 {
		t.Errorf("generator ran %d times, want 2 (nil cache, cold miss)", gens)
	}
	if !reflect.DeepEqual(plain, cold) || !reflect.DeepEqual(plain, warm) {
		t.Fatal("matrices differ between a nil, cold and warm cache")
	}
	if warm != cold {
		t.Error("a warm call returned new matrices, want the cached ones")
	}
	if c := root.Data().Children; len(c) != 0 {
		t.Errorf("a warm call recorded %d spans, want none", len(c))
	}
	if _, err := Matrices(key, gen, Options{Cache: cache, Strategy: mpi.StrategyTree}); err != nil {
		t.Fatal(err)
	}
	if gens != 3 {
		t.Errorf("another strategy ran the generator %d times in all, want 3", gens)
	}

	shared := workcache.New(0)
	if _, err := AnalyzeApp("LULESH", 64, Options{Cache: shared}); err != nil {
		t.Fatal(err)
	}
	fail := func() (*trace.Trace, error) { return nil, errors.New("generated again") }
	got, err := Matrices(key, fail, Options{Cache: shared})
	if err != nil {
		t.Fatalf("after AnalyzeApp: %v", err)
	}
	if !reflect.DeepEqual(got, plain) {
		t.Fatal("AnalyzeApp cached other matrices")
	}
}
